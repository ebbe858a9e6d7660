// Package everyanalyzer carries exactly one deliberate finding per
// analyzer spanlint registers, so the smoke test can check that each
// one runs and that the NDJSON diagnostic shape holds end to end. It
// lives under testdata so repo-wide runs (./...) never load it.
package everyanalyzer

import (
	"context"
	"net/http"
	"strconv"
	"sync"
)

type t struct {
	mu sync.Mutex
	f  int
}

// use leaks its lock on the early return (lockorder).
func use(p *t) int {
	p.mu.Lock()
	if p.f == 0 {
		return 0
	}
	p.mu.Unlock()
	return p.f
}

// RunContext runs work in a loop that never looks at ctx (ctxloop).
func RunContext(ctx context.Context, work []func()) {
	for _, w := range work {
		w()
	}
}

// grow is marked allocation-free but allocates (hotalloc).
//
// spanlint:hotpath
func grow(n int) []int { return make([]int, n) }

// serve sizes a buffer by a query parameter (taintflow).
func serve(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	w.Write(make([]byte, n))
}
