package eva

import (
	"bytes"

	"spanners/internal/model"
)

// Scan acceleration: literal prefiltering and self-loop skipping for the
// Algorithm 1 / Algorithm 3 scan loops, in the style of production regex
// engines (memchr prefilters, accelerated DFA states) but constrained by
// the spanner setting — enumeration and counting must stay EXACT, so a
// byte may only be skipped when doing so provably does not change the
// evaluator's configuration.
//
// The key observation: the evaluator's entire per-document state is the
// live configuration — the set of live deterministic states together with
// their node lists (or run counts). One position of Algorithm 1 applies
// Capturing(i) then Reading(i). When the configuration is exactly the
// singleton {q}, that round is the identity for byte b iff
//
//  1. no extended variable transition of q targets q itself (otherwise
//     Capturing grows q's list),
//  2. δ(q, b) = q (Reading routes q's list back to q), and
//  3. for every capture transition (q, S, t): δ(t, b) is undefined (the
//     nodes Capturing spawned die before touching any list that survives).
//
// Such a byte is called inert for q. Inert bytes can be skipped in bulk —
// whatever q's list (or count) holds — because identity rounds compose:
// only the position counter advances. The bytes that are NOT inert are
// q's exit bytes; finding the next exit byte is a memchr-class search.
//
// On top of the per-state skip sets, a forced-departure analysis extracts
// a required literal at states with a single exit byte: if every
// configuration that leaves the singleton {q} must read the literal
// byte-for-byte or die without ever touching a surviving list, then the
// scan can jump with bytes.Index to the next occurrence of the whole
// literal. Overlapping partial occurrences at the end of the searched
// window are handed back to the full evaluator (see accel.find), which is
// also what keeps chunked streaming exact: the live configuration itself
// carries partial-literal state across chunk boundaries.

// accelMode selects the search strategy of an accelerated state.
type accelMode uint8

const (
	accelNone    accelMode = iota // state not accelerated
	accelScan                     // per-byte bitmap test over the skip set
	accelMemchr                   // bytes.IndexByte over ≤ maxAccelExits exit bytes
	accelLiteral                  // bytes.Index over a required literal
)

const (
	// maxAccelExits caps the exit-byte list searched via chained
	// bytes.IndexByte; beyond it the bitmap scan is used.
	maxAccelExits = 4
	// maxAccelLiteral caps the extracted literal length.
	maxAccelLiteral = 32
	// maxAccelStates caps eager per-state analysis when a table freezes;
	// larger automata accelerate only the initial state and the scan anchor
	// (the common .*lit.* shape) to keep freezing linear-ish in the table
	// size.
	maxAccelStates = 1 << 16
)

// accel is the per-state acceleration record. The zero value means "not
// accelerated".
type accel struct {
	mode accelMode
	// skip is the inert-byte set of the state.
	skip model.ByteSet
	// exits holds the complement of skip when small enough for chained
	// IndexByte search.
	exits []byte
	// lit is the required literal of accelLiteral states; lit[0] is the
	// state's only exit byte.
	lit []byte
	// sink reports that every byte is inert (skip holds all 256), which
	// the scan gate asks about once per byte while a few states are live.
	sink bool
}

// find returns how many leading bytes of chunk are provably inert while
// the live configuration is exactly the singleton owning this record.
// 0 means the next byte must go through the full evaluator.
func (a *accel) find(chunk []byte) int {
	switch a.mode {
	case accelMemchr:
		k := len(chunk)
		// Each IndexByte is bounded by the best candidate found so far, so
		// the chained search never rescans past an earlier exit.
		for _, e := range a.exits {
			if j := bytes.IndexByte(chunk[:k], e); j >= 0 {
				k = j
			}
		}
		return k
	case accelScan:
		for i := 0; i < len(chunk); i++ {
			if !a.skip.Has(chunk[i]) {
				return i
			}
		}
		return len(chunk)
	case accelLiteral:
		// The forced-departure analysis guarantees that a configuration
		// leaving {q} either reads lit byte-for-byte or dies without
		// touching any surviving list. A region with no occurrence of lit
		// is therefore inert — except that partial occurrences overlapping
		// the region's end (including the lead-in of the found occurrence)
		// may still be live there, so the skip stops at the earliest
		// position whose suffix into the region boundary is a non-empty
		// prefix of lit. Everything from that position on runs through the
		// full evaluator, which keeps doc-end and chunk-boundary handling
		// exact: partial matches simply stay in the live configuration.
		r := bytes.Index(chunk, a.lit)
		if r < 0 {
			r = len(chunk)
		}
		lo := r - len(a.lit) + 1
		if lo < 0 {
			lo = 0
		}
		for m := lo; m < r; m++ {
			if bytes.Equal(chunk[m:r], a.lit[:r-m]) {
				return m
			}
		}
		return r
	}
	return 0
}

// noAccel is the record of an analyzed state that is not accelerated.
var noAccel accel

// analyzeAccel computes the acceleration record of state q, &noAccel when
// q is not accelerated. withLiteral additionally runs the forced-departure
// literal extraction when the state has a single exit byte; it is
// requested only at the scan-anchor state (see findScanState) because
// extraction explores up to 32 transitions per byte class from every state
// of the departure. On a filling table the analysis mints the states it
// steps into, like Step does.
func (c *Compiled) analyzeAccel(q int, withLiteral bool) *accel {
	targets := c.caps(q)
	for _, t := range targets {
		if t.To == q {
			return &noAccel // Capturing would grow q's own list
		}
	}
	var skip model.ByteSet
	p := &c.cls
	for k, b := range p.rep {
		t, ok := c.step(q, b)
		if !ok || t != q {
			continue
		}
		inert := true
		for _, e := range targets {
			if _, ok := c.step(e.To, b); ok {
				inert = false
				break
			}
		}
		if inert {
			skip = skip.Union(p.set[k])
		}
	}
	if skip.IsEmpty() {
		return &noAccel
	}
	a := &accel{mode: accelScan, skip: skip, sink: skip == model.AnyByte()}
	if exits := skip.Negate(); exits.Len() <= maxAccelExits {
		a.mode = accelMemchr
		a.exits = exits.Bytes()
	}
	if withLiteral && len(a.exits) == 1 {
		if lit := c.extractLiteral(q, a.exits[0]); len(lit) >= 2 {
			a.mode = accelLiteral
			a.lit = lit
		}
	}
	return a
}

// extractLiteral runs the forced-departure analysis at state q with single
// exit byte b0. It returns the longest literal L (L[0] = b0, capped at
// maxAccelLiteral) such that, starting from the configuration {q}, every
// departure either follows L byte-for-byte or dies without modifying any
// list that survives — the property that licenses accel.find's
// bytes.Index jump.
//
// The analysis simulates the departure at the configuration level. X_j is
// the set of deterministic states a departure occupies after reading
// L[0..j-1] (beyond the persistent {q}); extending the literal by one byte
// requires, with E(c) the image of X_j ∪ capTargets(X_j) under byte c:
//
//   - δ(q, b0) = q — the {q} part persists through the candidate byte, so
//     skipped non-occurrences leave it untouched;
//   - no capture transition of X_j targets q, and q ∉ E(c) for any c —
//     a departure must never merge back into q's surviving list;
//   - exactly one byte c* has E(c*) ≠ ∅ — deviation kills the departure
//     entirely; c* becomes L[j];
//   - X_{j+1} = E(c*) is disjoint from every earlier X — overlapping
//     departures at different depths must never share a deterministic
//     state, or a skipped partial occurrence could smuggle bookkeeping
//     into a processed one.
//
// Whenever a condition fails the literal is capped at its current length:
// departures that read the whole capped literal are full occurrences,
// which accel.find always hands to the real evaluator.
func (c *Compiled) extractLiteral(q int, b0 byte) []byte {
	if t, ok := c.step(q, b0); !ok || t != q {
		return nil
	}
	seen := map[int]bool{q: true}
	var x []int
	addX := func(set []int, t int) []int {
		for _, y := range set {
			if y == t {
				return set
			}
		}
		return append(set, t)
	}
	for _, e := range c.caps(q) {
		if t, ok := c.step(e.To, b0); ok {
			if t == q {
				return nil
			}
			x = addX(x, t)
		}
	}
	if len(x) == 0 {
		// b0 is an exit byte only because δ(q, b0) ≠ q, handled above, or
		// the state table changed under us; either way no departure.
		return nil
	}
	lit := []byte{b0}
	for _, t := range x {
		seen[t] = true
	}
	for len(lit) < maxAccelLiteral {
		// One capturing round from the departure set; a capture into q
		// would pollute q's surviving list, so it caps the literal.
		ext := append([]int(nil), x...)
		for _, y := range x {
			for _, e := range c.caps(y) {
				if e.To == q {
					return lit
				}
				ext = addX(ext, e.To)
			}
		}
		// Images per byte class: exactly one byte may keep the departure
		// alive, and no byte may route it back into q.
		p := &c.cls
		next := -1 // the unique continuation byte, -1 while unknown
		var nx []int
		for k, b := range p.rep {
			var img []int
			for _, y := range ext {
				if t, ok := c.step(y, b); ok {
					if t == q {
						return lit
					}
					img = addX(img, t)
				}
			}
			if len(img) == 0 {
				continue
			}
			if next >= 0 || p.set[k].Len() > 1 {
				return lit // two live continuations: literal ends here
			}
			next, nx = int(b), img
		}
		if next < 0 {
			// Every continuation dies; the departure is a dead end (rare —
			// trimmed automata keep states co-reachable) and the literal
			// cannot be extended meaningfully.
			return lit
		}
		for _, t := range nx {
			if seen[t] {
				return lit // depth collision: see the doc comment
			}
		}
		lit = append(lit, byte(next))
		x = nx
		for _, t := range x {
			seen[t] = true
		}
	}
	return lit
}

// maxScanDepth bounds how far findScanState follows the dead-prefix
// configuration away from the initial state.
const maxScanDepth = 8

// findScanState locates the scan-anchor state: the deterministic state the
// configuration sits in while scanning a matchless region. Thompson-style
// constructions put a short lead-in before the `.*` loop (q0 —.→ q1 with
// the self-loop on q1), so the initial state itself is often not
// accelerable while its immediate successors are. The search follows only
// bytes that keep the configuration a singleton — δ(q, b) defined and no
// capture target of q surviving b — which is exactly how a dead prefix
// evolves, and returns the first accelerable state found (breadth-first,
// bounded depth), or -1.
func (c *Compiled) findScanState(q0 int) int {
	if q0 < 0 {
		return -1
	}
	seen := map[int]bool{q0: true}
	frontier := []int{q0}
	for depth := 0; depth <= maxScanDepth && len(frontier) > 0; depth++ {
		var next []int
		for _, q := range frontier {
			if a := c.analyzeAccel(q, false); a.mode != accelNone {
				return q
			}
			for _, b := range c.cls.rep {
				t, ok := c.step(q, b)
				if !ok || seen[t] {
					continue
				}
				singleton := true
				for _, e := range c.caps(q) {
					if _, ok := c.step(e.To, b); ok {
						singleton = false
						break
					}
				}
				if !singleton {
					continue
				}
				seen[t] = true
				next = append(next, t)
			}
		}
		frontier = next
	}
	return -1
}
