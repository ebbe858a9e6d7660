// Package stale holds one //spanlint:ignore that suppresses nothing, so
// the smoke test can check that a stale waiver fails the run. It lives
// under testdata so repo-wide runs (./...) never load it.
package stale

//spanlint:ignore lockorder there is no mutex here to excuse
func Clean() int { return 1 }
