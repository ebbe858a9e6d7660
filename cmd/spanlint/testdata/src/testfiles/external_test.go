package testfiles_test

import "spanners/cmd/spanlint/testdata/src/testfiles"

func get(g *testfiles.Guarded) int {
	g.Mu.Lock()
	if g.N == 0 {
		return 0 // leaks g.Mu
	}
	g.Mu.Unlock()
	return g.N
}
