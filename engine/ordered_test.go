package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedDoneExactlyOnce pins ordered's hand-back contract: every
// result work produced reaches done exactly once — after its emit, or in
// place of it when emit stops the batch or the context is cancelled —
// including results that workers finish after ordered has returned.
func TestOrderedDoneExactlyOnce(t *testing.T) {
	const n = 64
	for trial := 0; trial < 40; trial++ {
		var produced, released [n]atomic.Int32
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(trial%10)*50*time.Microsecond)
		stopAt := n
		if trial%2 == 1 {
			stopAt = trial % n
		}
		emitted, _ := ordered(ctx, 4, n,
			func(i int) int {
				produced[i].Add(1)
				time.Sleep(time.Duration(i%3) * 10 * time.Microsecond)
				return i
			},
			func(i, _ int) bool { return i < stopAt },
			func(i int) { released[i].Add(1) })
		cancel()

		deadline := time.Now().Add(5 * time.Second)
		for i := 0; i < n; i++ {
			for produced[i].Load() != released[i].Load() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if p, r := produced[i].Load(), released[i].Load(); p > 1 || p != r {
				t.Fatalf("trial %d (emitted %d): index %d produced %d times, done %d times", trial, emitted, i, p, r)
			}
			if i < emitted && released[i].Load() != 1 {
				t.Fatalf("trial %d: emitted index %d never reached done", trial, i)
			}
		}
	}
}
