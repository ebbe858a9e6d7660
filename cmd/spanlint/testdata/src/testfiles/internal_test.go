package testfiles

import "sync"

// Guarded is visible to the external test package only through the
// in-package test variant.
type Guarded struct {
	Mu sync.Mutex
	N  int
}

func (g *Guarded) get() int {
	g.Mu.Lock()
	if g.N == 0 {
		return 0 // leaks g.Mu
	}
	g.Mu.Unlock()
	return g.N
}
