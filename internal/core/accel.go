package core

// Accelerator is the optional interface an Automaton may implement to
// accelerate the Algorithm 1/3 scan loops. AccelSkip(q, chunk) returns how
// many leading bytes of chunk are inert while the live configuration is
// exactly the singleton {q}: one Capturing+Reading round over an inert
// byte provably leaves the configuration (states and their lists or
// counts) untouched, and its slot order too — each live state reads back
// into its own slot and the slots Capturing opened die — so the evaluator
// may advance its position counter past them wholesale instead of running
// the two procedures per byte. The eva package's compiled and lazy
// automata implement it via self-loop analysis and required-literal
// extraction; the contract is exactness — a skip must never change the
// eventual Result or count.
//
// The evaluator only consults AccelSkip when its live set reduces to a
// single governing state — alone, or alongside sink states (AccelSink)
// whose lists provably ride along unchanged — so implementations reason
// about single-state configurations only.
type Accelerator interface {
	AccelSkip(q int, chunk []byte) int
	// AccelSink reports whether every byte is inert for q: its list rides
	// along unchanged through any skip. The accepting `.*` tail that stays
	// live after a completed match is the canonical sink; without the
	// sink carve-out, acceleration would end at a document's first match.
	AccelSink(q int) bool
	// AccelEnabled reports whether AccelSkip can ever answer non-zero;
	// false lets the evaluator keep acceleration entirely off the hot loop.
	AccelEnabled() bool
}

const (
	// accelWindow is the sliding-window length (in attempted bytes) over
	// which skip effectiveness is measured.
	accelWindow = 4096
	// accelMinSkipPercent is the effectiveness floor: when a full window
	// skips less than this share of its bytes, the candidate density is too
	// high for prefiltering to pay for itself and the gate disables it for
	// the rest of the document.
	accelMinSkipPercent = 25
	// accelMaxRideAlong caps how many live states the sink test walks; a
	// larger live set means real match activity, where skips cannot happen
	// anyway.
	accelMaxRideAlong = 4
)

// accelGate owns the per-document acceleration decision: it routes skip
// attempts to the automaton's Accelerator and turns acceleration off for
// the remainder of the document when a sliding window shows the corpus is
// too dense for the prefilter to win — the fallback that keeps adversarial
// inputs within a constant factor of the unaccelerated scan.
type accelGate struct {
	acc Accelerator
	// on is true while skip attempts are worth making.
	on bool
	// skipped counts bytes bulk-skipped over the whole document.
	skipped int64
	// fellBack records that the effectiveness fallback fired.
	fellBack bool
	// winBytes/winSkipped are the sliding-window accumulators; a skip
	// attempt covers the bytes it skipped plus the byte that stopped it.
	winBytes   int
	winSkipped int
	// base and end are the document offsets where the chunk being scanned
	// starts and ends, and last is where the previous skip attempt ended,
	// in this chunk or an earlier one.
	base, end, last int
}

// init arms the gate for a new document over automaton a.
func (g *accelGate) init(a Automaton) {
	g.acc = nil
	g.on = false
	g.skipped = 0
	g.fellBack = false
	g.winBytes, g.winSkipped = 0, 0
	g.base, g.end, g.last = 0, 0, 0
	if acc, ok := a.(Accelerator); ok && acc.AccelEnabled() {
		g.acc = acc
		g.on = true
	}
}

// scanState reduces a live configuration to the single state whose record
// governs a skip attempt: one non-sink state, with every other live state
// a sink riding along unchanged. The second return is false when no such
// reduction exists (several states are genuinely active). An all-sink
// configuration reduces to any member — its record covers every byte, so
// the attempt will skip the whole chunk.
func (g *accelGate) scanState(live []int) (int, bool) {
	if len(live) == 1 {
		return live[0], true
	}
	if len(live) == 0 || len(live) > accelMaxRideAlong {
		return 0, false
	}
	q, found := 0, false
	for _, s := range live {
		if g.acc.AccelSink(s) {
			continue
		}
		if found {
			return 0, false
		}
		q, found = s, true
	}
	if !found {
		return live[0], true
	}
	return q, true
}

// next moves the gate onto the document's next chunk, n bytes long.
func (g *accelGate) next(n int) {
	g.base = g.end
	g.end += n
}

// skip is the one skip attempt of the scan loops: given the governing
// state q of the live states (see scanState) it asks the Accelerator how
// many bytes of chunk[i:] are inert and returns that count, 0 when the
// attempt skips nothing. The bytes between the end of the previous attempt
// and this one went through the per-byte path, whether in this chunk or
// across chunk boundaries; feeding them into the window alongside the
// skipped bytes makes the window measure true candidate density — on
// corpora where partial matches keep the live set large, the slow
// stretches dominate and push the gate to fall back even though each
// individual attempt looks harmless — however the document is chunked.
func (g *accelGate) skip(q int, chunk []byte, i int) int {
	n := g.acc.AccelSkip(q, chunk[i:])
	pos := g.base + i
	g.skipped += int64(n)
	g.winSkipped += n
	g.winBytes += n + pos - g.last
	g.last = pos + n
	if g.winBytes >= accelWindow {
		if g.winSkipped*100 < g.winBytes*accelMinSkipPercent {
			g.on = false
			g.fellBack = true
		}
		g.winBytes, g.winSkipped = 0, 0
	}
	return n
}
