package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"spanners/internal/gen"
)

// discardWriter is a ResponseWriter that counts the body's lines and drops
// its bytes, so the benchmark measures the handler, not a growing buffer.
type discardWriter struct {
	h    http.Header
	rows int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Flush()              {}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.rows += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// BenchmarkEnumerateNDJSON drives the in-process enumerate handler with
// the end-to-end benchmark's nested-enum request — NestedPattern(2) over
// four 4 KiB DenseMarkers documents, 20000 rows each — and reports the
// handler's cost per NDJSON row: the Algorithm 1 scan, Algorithm 2 and
// the row encoding and response writes, without the network.
func BenchmarkEnumerateNDJSON(b *testing.B) {
	srv := newServer(serverConfig{})
	docs := make([]string, 4)
	for i := range docs {
		docs[i] = string(gen.DenseMarkers(4<<10, int64(i)))
	}
	body, err := json.Marshal(request{Query: "/" + gen.NestedPattern(2) + "/", Docs: docs, Mode: "strict", Limit: 20000})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *discardWriter {
		w := &discardWriter{h: http.Header{}}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/enumerate", bytes.NewReader(body)))
		return w
	}
	rows := serve().rows - 1 // all but the trailer
	if rows != len(docs)*20000 {
		b.Fatalf("%d rows, want %d", rows, len(docs)*20000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkDecodeRequest decodes the end-to-end benchmark's request
// bodies (see wireBodies) the way spannerd does, with the one-pass
// decoder, and with decodeStrict alone over the same bytes — the decode
// every body took before. SetBytes makes MB/s the body bytes per second.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, wb := range wireBodies(b) {
		for _, dec := range []struct {
			name   string
			decode func([]byte) error
		}{
			{"onepass", func(body []byte) error {
				_, err := decodeBody[request](bytes.NewReader(body))
				return err
			}},
			{"decodeStrict", func(body []byte) error {
				var req request
				return decodeStrict(bytes.NewReader(body), &req)
			}},
		} {
			b.Run(wb.name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(wb.body)))
				for range b.N {
					if err := dec.decode(wb.body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
