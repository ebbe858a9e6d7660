package spanner_test

import (
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// TestColdLazySpannerConcurrentEntryPoints releases one goroutine per
// entry point onto a freshly compiled lazy spanner at once, so the first
// passes fill the shared on-the-fly table concurrently — entries, capture
// lists and acceleration records alike — and checks every answer against
// a strict spanner of the same pattern. Run under -race it pins that
// eva.Lazy guards its own table.
func TestColdLazySpannerConcurrentEntryPoints(t *testing.T) {
	for _, tc := range []struct {
		name, pattern string
		doc           []byte
	}{
		{"figure1", gen.Figure1Pattern(), gen.Contacts(40, 5)},
		// A capture under a star needs the Proposition 4.1 product; a
		// valid run assigns x once, so only one iteration matches.
		{"sequentialized", `(!x{a+}b)*`, []byte(strings.Repeat("a", 60) + "b")},
		// Once a match completes, the accepting `.*` tail stays live
		// beside the scan state, and the pair skips inert bytes together.
		{"sink tail", `.*!h{www\.[a-z]+}.*`, []byte(strings.Repeat("see www.abc or www.de, ", 20))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			strict := spanner.MustCompile(tc.pattern, spanner.WithStrict())
			wantKeys := fmt.Sprint(keysOf(strict, tc.doc))
			wantCount, wantExact := strict.Count(tc.doc)
			wantBig := strict.CountBig(tc.doc)
			wantEmpty := strict.IsEmpty(tc.doc)
			if wantCount == 0 || !wantExact {
				t.Fatalf("reference count = %d, exact %v; want a small non-zero count", wantCount, wantExact)
			}
			reader := func() *chunkReader { return &chunkReader{data: tc.doc, size: 5} }
			checkKeys := func(entry string, keys []string) {
				if got := fmt.Sprint(keys); got != wantKeys {
					t.Errorf("%s: keys %s, want %s", entry, got, wantKeys)
				}
			}
			checkCount := func(entry string, n uint64, exact bool) {
				if n != wantCount || exact != wantExact {
					t.Errorf("%s: count (%d, %v), want (%d, %v)", entry, n, exact, wantCount, wantExact)
				}
			}
			checkBig := func(entry string, n *big.Int) {
				if n.Cmp(wantBig) != 0 {
					t.Errorf("%s: count %s, want %s", entry, n, wantBig)
				}
			}
			for trial := range 4 {
				s := spanner.MustCompile(tc.pattern, spanner.WithLazy())
				entries := []func(){
					func() { checkKeys("Enumerate", keysOf(s, tc.doc)) },
					func() {
						ev := s.Preprocess(tc.doc)
						var keys []string
						ev.Enumerate(func(m *spanner.Match) bool {
							keys = append(keys, m.Key())
							return true
						})
						ev.Release()
						checkKeys("Preprocess", keys)
					},
					func() { n, exact := s.Count(tc.doc); checkCount("Count", n, exact) },
					func() { checkBig("CountBig", s.CountBig(tc.doc)) },
					func() {
						if got := s.IsEmpty(tc.doc); got != wantEmpty {
							t.Errorf("IsEmpty = %v, want %v", got, wantEmpty)
						}
					},
					func() {
						var keys []string
						err := s.EnumerateReader(reader(), func(m *spanner.Match) bool {
							keys = append(keys, m.Key())
							return true
						})
						if err != nil {
							t.Errorf("EnumerateReader: %v", err)
						}
						checkKeys("EnumerateReader", keys)
					},
					func() {
						n, exact, err := s.CountReader(reader())
						if err != nil {
							t.Errorf("CountReader: %v", err)
						}
						checkCount("CountReader", n, exact)
					},
					func() {
						n, err := s.CountBigReader(reader())
						if err != nil {
							t.Errorf("CountBigReader: %v", err)
							return
						}
						checkBig("CountBigReader", n)
					},
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for _, entry := range entries {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						entry()
					}()
				}
				close(start)
				wg.Wait()
				if t.Failed() {
					t.Fatalf("trial %d failed", trial)
				}
			}
		})
	}
}
