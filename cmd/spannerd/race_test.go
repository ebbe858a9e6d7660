//go:build race

package main

// raceEnabled reports a -race build, under which sync.Pool deliberately
// drops a share of its Puts, so pool-reuse pins cannot hold.
const raceEnabled = true
