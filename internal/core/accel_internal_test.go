package core

import (
	"bytes"
	"testing"

	"spanners/internal/eva"
	"spanners/internal/gen"
	"spanners/internal/rgx"
)

// compileTable lowers a sequential pattern to the frozen table the
// strict facade evaluates.
func compileTable(t *testing.T, pattern string) *eva.Compiled {
	t.Helper()
	n, err := rgx.Parse(pattern)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rgx.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	e := v.ToExtended().Trim()
	if !e.IsSequential() {
		t.Fatalf("%q: not sequential", pattern)
	}
	c, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// manyExitsPattern has more than maxExits exit bytes in its scan
// configuration (every capital letter), so its record tests each byte
// against the inert set.
const manyExitsPattern = `.*!x{[A-Z][a-z]+}.*`

// manyExitsDoc is lowercase text with a capitalized word every ~500 bytes.
func manyExitsDoc(n int) []byte {
	doc := gen.RandomDoc(n, "abcdefghijklmnopqrstuvwxyz ", 5)
	for i := 250; i+1 < len(doc); i += 500 {
		doc[i], doc[i+1] = 'Q', 'u'
	}
	return doc
}

// TestSkipRecordsAreInert checks the two facts that make a skip exact.
// Every inert byte of every record a pass made has a built column whose
// program relabels the configuration onto itself, so skipping it is the
// identity round. And the search over a record stops at exactly the first
// byte the record does not know inert, from every start position of the
// document, so no skip passes an exit.
func TestSkipRecordsAreInert(t *testing.T) {
	for _, c := range []struct {
		name, pattern string
		doc           []byte
	}{
		{"contacts", gen.Figure1Pattern(), gen.Contacts(200, 3)},
		{"sparse", gen.SparsePattern, gen.SparseMatches(1<<14, 0.001, 3)},
		{"densecandidates", gen.SparsePattern, gen.DenseCandidates(1<<12, 3)},
		{"manyexits", manyExitsPattern, manyExitsDoc(1 << 14)},
	} {
		a := compileTable(t, c.pattern)
		s := NewStream(a, nil)
		for i := 0; i < len(c.doc); i += 4096 {
			s.Feed(c.doc[i:min(i+4096, len(c.doc))])
		}
		s.Close(c.doc)
		m := &s.e.memo
		records := 0
		for cfg, r := range m.skips {
			if r < 0 {
				continue
			}
			records++
			rec := &m.recs[r]
			self := relabel | uint32(cfg)
			for b := range 256 {
				if rec.inert.Has(byte(b)) && m.trans[cfg*m.stride+int(m.of[b])] != self {
					t.Fatalf("%s: byte %q is inert in configuration %d, but its column is %#x", c.name, byte(b), cfg, m.trans[cfg*m.stride+int(m.of[b])])
				}
			}
			exits := rec.inert.Negate()
			if rec.nExits >= 0 && (int(rec.nExits) != exits.Len() || !bytes.Equal(rec.exits[:rec.nExits], exits.Bytes())) {
				t.Fatalf("%s: configuration %d lists exits %q, want %q", c.name, cfg, rec.exits[:rec.nExits], exits.Bytes())
			}
			// stop[i] is the first byte at or after i that is not inert.
			stop := make([]int, len(c.doc)+1)
			stop[len(c.doc)] = len(c.doc)
			for i := len(c.doc) - 1; i >= 0; i-- {
				stop[i] = i
				if rec.inert.Has(c.doc[i]) {
					stop[i] = stop[i+1]
				}
			}
			var g accelGate
			g.next(len(c.doc))
			for i := 0; i <= len(c.doc); i++ {
				if j := g.find(rec, c.doc, i); j != stop[i] {
					t.Fatalf("%s: configuration %d: the search from %d stops at %d, want %d", c.name, cfg, i, j, stop[i])
				}
			}
		}
		t.Logf("%s: %d configurations, %d with a record, %d bytes skipped", c.name, len(m.skips), records, s.AccelSkippedBytes())
		if records == 0 && c.name != "densecandidates" {
			t.Errorf("%s: no configuration got a skip record", c.name)
		}
	}
}

// TestSkipSearchIsLinear pins that a chunk's searches for exit bytes cost
// at most (exits + 1) × its length. In `.*!x{[.w]z}.*` over
// "aaaaaaaaaw"…, the scan configuration's exits are '.' and 'w', a skip
// is attempted every ten bytes, and '.' never occurs: searching the rest
// of the chunk for it on every attempt would be quadratic.
func TestSkipSearchIsLinear(t *testing.T) {
	a := compileTable(t, `.*!x{[.w]z}.*`)
	doc := bytes.Repeat([]byte("aaaaaaaaaw"), 1<<15)
	for _, size := range []int{1 << 16, len(doc)} {
		s := NewStream(a, nil)
		cs := NewCountStream(a)
		for i := 0; i < len(doc); i += size {
			chunk := doc[i:min(i+size, len(doc))]
			before, countBefore := s.gate.searched, cs.gate.searched
			s.Feed(chunk)
			cs.Feed(chunk)
			bound := int64(exitBytes(&s.e.memo)+1) * int64(len(chunk))
			if got := s.gate.searched - before; got > bound {
				t.Fatalf("%d-byte chunks: Stream searched %d bytes of a %d-byte chunk, bound %d", size, got, len(chunk), bound)
			}
			if got := cs.gate.searched - countBefore; got > bound {
				t.Fatalf("%d-byte chunks: CountStream searched %d bytes of a %d-byte chunk, bound %d", size, got, len(chunk), bound)
			}
		}
		if n := s.AccelSkippedBytes(); n < int64(len(doc))/2 || cs.AccelSkippedBytes() != n {
			t.Fatalf("%d-byte chunks: Stream skipped %d bytes, CountStream %d, of %d", size, n, cs.AccelSkippedBytes(), len(doc))
		}
	}
}

// exitBytes counts the distinct bytes the records of m search for.
func exitBytes(m *memo) int {
	var exits [256]bool
	n := 0
	for _, r := range m.recs {
		for _, b := range r.exits[:max(r.nExits, 0)] {
			if !exits[b] {
				exits[b] = true
				n++
			}
		}
	}
	return n
}
