// Package testfiles has one lint finding in each kind of file a package
// can have: a plain file, an in-package _test.go file, and the external
// testfiles_test package. The spanlint smoke test checks that each is
// reported exactly once. It lives under testdata so repo-wide runs
// (./...) never load it.
package testfiles

import "sync"

var mu sync.Mutex

func count(n int) int {
	mu.Lock()
	if n == 0 {
		return 0 // leaks mu
	}
	mu.Unlock()
	return n
}
