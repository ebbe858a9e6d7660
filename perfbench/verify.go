package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
)

// wireLine is one NDJSON line of an enumerate response: a match row or
// the trailer.
type wireLine struct {
	Trailer bool `json:"trailer"`

	Doc   int                 `json:"doc"`
	Spans map[string]wireSpan `json:"spans"`

	Docs          int    `json:"docs"`
	DocsProcessed int    `json:"docs_processed"`
	DocsSkipped   int    `json:"docs_skipped"`
	Matches       int64  `json:"matches"`
	Truncated     bool   `json:"truncated"`
	Error         string `json:"error"`
}

type wireSpan struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// verify checks a response body against the library's answer for s.
func (s *spec) verify(body []byte) error {
	if s.endpoint == "count" {
		return s.verifyCount(body)
	}
	return s.verifyEnumerate(body)
}

func (s *spec) verifyCount(body []byte) error {
	var resp struct {
		Counts []struct {
			Count string `json:"count"`
			Exact bool   `json:"exact"`
		} `json:"counts"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("count response: %w", err)
	}
	if len(resp.Counts) != len(s.counts) {
		return fmt.Errorf("count response has %d counts, want %d", len(resp.Counts), len(s.counts))
	}
	for i, c := range resp.Counts {
		if !c.Exact || c.Count != s.counts[i].String() {
			return fmt.Errorf("doc %d: count %s (exact %v), library says %s", i, c.Count, c.Exact, s.counts[i])
		}
	}
	return nil
}

// verifyEnumerate checks the rows per document against min(count,
// limit), every span's text against the document, and the trailer's
// accounting.
func (s *spec) verifyEnumerate(body []byte) error {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	perDoc := make([]int64, len(s.docs))
	var rows int64
	for i, raw := range lines {
		var l wireLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
		}
		if l.Trailer {
			if i != len(lines)-1 {
				return fmt.Errorf("trailer on line %d of %d", i+1, len(lines))
			}
			return s.verifyTrailer(l, perDoc, rows)
		}
		if l.Doc < 0 || l.Doc >= len(s.docs) {
			return fmt.Errorf("line %d: doc %d out of range", i+1, l.Doc)
		}
		doc := s.docs[l.Doc]
		for name, sp := range l.Spans {
			if sp.Start < 0 || sp.End < sp.Start || sp.End > len(doc) || string(doc[sp.Start:sp.End]) != sp.Text {
				return fmt.Errorf("line %d: span %s=[%d,%d) does not match its text", i+1, name, sp.Start, sp.End)
			}
		}
		perDoc[l.Doc]++
		rows++
	}
	return fmt.Errorf("enumerate response has no trailer")
}

func (s *spec) verifyTrailer(t wireLine, perDoc []int64, rows int64) error {
	truncated := false
	for i, c := range s.counts {
		want := capRows(c, s.limit)
		if perDoc[i] != want {
			return fmt.Errorf("doc %d: %d rows, library says %d", i, perDoc[i], want)
		}
		truncated = truncated || c.Cmp(big.NewInt(want)) > 0
	}
	n := len(s.docs)
	switch {
	case t.Error != "":
		return fmt.Errorf("trailer error %q", t.Error)
	case t.Docs != n || t.DocsProcessed != n || t.DocsSkipped != 0:
		return fmt.Errorf("trailer docs=%d processed=%d skipped=%d, want %d/%d/0", t.Docs, t.DocsProcessed, t.DocsSkipped, n, n)
	case t.Matches != rows || rows != s.rows:
		return fmt.Errorf("trailer matches=%d, rows=%d, library says %d", t.Matches, rows, s.rows)
	case t.Truncated != truncated:
		return fmt.Errorf("trailer truncated=%v, want %v", t.Truncated, truncated)
	}
	return nil
}
