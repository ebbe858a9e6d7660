// Package jsondemo exists for the spanlint -json smoke test: it
// carries exactly one deliberate lockorder finding so the test can
// assert the NDJSON diagnostic shape end to end. It lives under
// testdata so repo-wide runs (./...) never load it.
package jsondemo

import "sync"

type t struct {
	mu sync.Mutex
	f  int
}

func use(p *t) int {
	p.mu.Lock()
	if p.f == 0 {
		return 0 // deliberate: lockorder must flag the lock leaked here
	}
	p.mu.Unlock()
	return p.f
}
