package jsonrow

import (
	"bytes"
	"testing"

	"spanners/spanner"
)

// TestDocStateScansOnceAtOutputBound pins the cost rule of DocState: no
// Plain scan while the spans objects appended for a document stay below
// len(doc) bytes, and exactly one scan once they reach it, however many
// rows follow.
func TestDocStateScansOnceAtOutputBound(t *testing.T) {
	scans := 0
	plainOf = func(doc []byte) bool { scans++; return Plain(doc) }
	defer func() { plainOf = Plain }()

	// Each match spans one "ab" of the document; a spans object is
	// {"w":{"start":S,"end":E,"text":"ab"}}, about 35 bytes, so it takes
	// dozens of rows to reach the 1 KiB document.
	sp := spanner.MustCompile(`.*!w{ab}.*`)
	doc := bytes.Repeat([]byte("ab.."), 256)
	spans := NewSpans(sp.Vars())
	for _, d := range [][]byte{doc, append(bytes.Clone(doc[:len(doc)-1]), '<')} {
		var st DocState
		emitted, rows := 0, 0
		sp.Enumerate(d, func(m *spanner.Match) bool {
			row := spans.Append(nil, m, &st)
			emitted += len(row)
			rows++
			want := 0
			if emitted >= len(d) {
				want = 1
			}
			if scans != want {
				t.Fatalf("row %d: %d scans after %d of %d bytes, want %d", rows, scans, emitted, len(d), want)
			}
			if want == 1 && st.plain != Plain(d) {
				t.Fatalf("row %d: decided plain=%v, Plain says %v", rows, st.plain, Plain(d))
			}
			return true
		})
		if scans != 1 {
			t.Fatalf("%d rows, %d scans; want the bound crossed, then one scan", rows, scans)
		}
		scans = 0
	}

	// A document whose rows never reach its length is never scanned.
	var st DocState
	long := append(bytes.Repeat([]byte{'.'}, 4096), "ab"...)
	sp.Enumerate(long, func(m *spanner.Match) bool {
		spans.Append(nil, m, &st)
		return true
	})
	if scans != 0 || st.decided {
		t.Fatalf("%d scans for one short match in a 4 KiB document, want 0", scans)
	}
}
