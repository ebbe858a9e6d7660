package core

import (
	"bytes"

	"spanners/internal/model"
)

// Accelerator is the optional interface of an Automaton whose scans may
// skip inert bytes. A byte is inert in a configuration when its round
// program relabels the configuration onto itself: Capturing fires no
// useful capture and Reading moves every slot k back to slot k, so the
// round leaves every list and count untouched and only the position
// advances. The memo records that fact per configuration (see
// memo.skip), so skipping needs nothing from the automaton beyond its
// transitions; AccelEnabled only reports whether skips are wanted. An
// automaton without it is scanned byte by byte.
type Accelerator interface {
	// AccelEnabled reports whether the scan loops may skip inert bytes;
	// false keeps skipping off the hot loop.
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
	// maxExits caps the exit bytes a skip record searches for with
	// bytes.IndexByte; a record with more tests each byte against its
	// inert set.
	maxExits = 4
)

// skipRec is the skip record of a configuration: its inert bytes, the
// union of the byte sets of its built columns whose program relabels it
// onto itself. The other bytes are its exits; nExits counts them when
// there are at most maxExits, listed in exits, and is -1 otherwise.
type skipRec struct {
	inert  model.ByteSet
	exits  [maxExits]byte
	nExits int8
}

// accelGate owns the per-document skip decision: it makes the skip
// attempts of the scan loops and turns skipping off for the remainder of
// the document when a sliding window shows the corpus is too dense for it
// to win — the fallback that keeps adversarial inputs within a constant
// factor of the byte-by-byte scan.
type accelGate struct {
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
	// epoch numbers the chunks the gate has scanned. When stamp[b] ==
	// epoch, at[b] is the index in the current chunk of the first b at
	// or after the last search for it, the chunk length when there is
	// none: an exit byte is searched for once per occurrence, not once
	// per attempt. searched counts the chunk bytes the searches examined.
	epoch    uint32
	stamp    [256]uint32
	at       [256]int
	searched int64
}

// init arms the gate for a new document over automaton a.
func (g *accelGate) init(a Automaton) {
	acc, ok := a.(Accelerator)
	g.on = ok && acc.AccelEnabled()
	g.skipped = 0
	g.fellBack = false
	g.winBytes, g.winSkipped = 0, 0
	g.base, g.end, g.last = 0, 0, 0
}

// next moves the gate onto the document's next chunk, n bytes long.
func (g *accelGate) next(n int) {
	g.base = g.end
	g.end += n
	if g.epoch++; g.epoch == 0 {
		clear(g.stamp[:])
		g.epoch = 1
	}
}

// skip is the one skip attempt of the scan loops, made at chunk[i] right
// after a byte that relabeled configuration c onto itself: it returns how
// many bytes from chunk[i] on are inert in c, 0 when chunk[i] is not.
// The bytes between the end of the previous attempt and this one went
// through the per-byte path, whether in this chunk or across chunk
// boundaries; feeding them into the window alongside the skipped bytes
// makes the window measure true candidate density — on corpora where
// partial matches keep the live set large, the slow stretches dominate
// and push the gate to fall back even though each individual attempt
// looks harmless — however the document is chunked.
func (g *accelGate) skip(m *memo, c int32, chunk []byte, i int) int {
	n := 0
	if r := m.skip(c); r != nil {
		n = g.find(r, chunk, i) - i
	}
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

// find returns the index of the first byte of chunk at or after i that r
// does not know inert, len(chunk) when there is none.
func (g *accelGate) find(r *skipRec, chunk []byte, i int) int {
	switch {
	case r.nExits == 0:
		return len(chunk)
	case r.nExits < 0:
		// The bit test by hand: ByteSet.Has takes its set by value, which
		// copies the set on every byte.
		set := &r.inert
		j := i
		for ; j < len(chunk); j++ {
			if c := chunk[j]; set[c>>6]&(1<<(c&63)) == 0 {
				break
			}
		}
		g.searched += int64(min(j+1, len(chunk)) - i)
		return j
	}
	k := len(chunk)
	for _, b := range r.exits[:r.nExits] {
		j := g.at[b]
		if g.stamp[b] != g.epoch || j < i {
			j = bytes.IndexByte(chunk[i:], b)
			if j < 0 {
				j = len(chunk)
				g.searched += int64(j - i)
			} else {
				j += i
				g.searched += int64(j + 1 - i)
			}
			g.at[b], g.stamp[b] = j, g.epoch
		}
		k = min(k, j)
	}
	return k
}
