// Fixture for the taintflow analyzer.
package taintflow

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"time"
)

type request struct {
	Docs      []string
	TimeoutMS int64
	Pattern   string
}

const (
	maxDocs    = 1024
	maxTimeout = int64(30000)
	maxN       = 4096
)

// decode is the decodeStrict shape: a size-bounded body filled into an
// out-parameter. The stream sink is satisfied by MaxBytesReader, but
// the decoded values stay attacker-controlled.
func decode(w http.ResponseWriter, r *http.Request) (*request, error) {
	var req request
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// badDecode reads the raw body with no size bound at all.
func badDecode(r *http.Request) (*request, error) {
	var req request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil { // want `JSON-decoding an attacker-controlled stream with no size bound`
		return nil, err
	}
	return &req, nil
}

// badRead slurps an unbounded request stream.
func badRead(r *http.Request) ([]byte, error) {
	return io.ReadAll(r.Body) // want `reading an attacker-controlled stream with no size bound`
}

// badBuffer reads an unbounded request stream into a buffer.
func badBuffer(r *http.Request) ([]byte, error) {
	var b bytes.Buffer
	if _, err := b.ReadFrom(r.Body); err != nil { // want `reading an attacker-controlled stream with no size bound`
		return nil, err
	}
	return b.Bytes(), nil
}

// readBody is the shape of a generic body reader: its parameter reaches
// the ReadFrom sink, so its callers must bound the stream they pass.
func readBody[T any](r io.Reader) (*T, error) {
	var b bytes.Buffer
	if _, err := b.ReadFrom(r); err != nil {
		return nil, err
	}
	v := new(T)
	return v, json.Unmarshal(b.Bytes(), v)
}

// goodGenericRead bounds the stream it hands the generic reader.
func goodGenericRead(w http.ResponseWriter, r *http.Request) (*request, error) {
	return readBody[request](http.MaxBytesReader(w, r.Body, 1<<20))
}

// badGenericRead hands it the raw body.
func badGenericRead(r *http.Request) (*request, error) {
	return readBody[request](r.Body) // want `passed to readBody, where it reaches a sink: reading an attacker-controlled stream with no size bound`
}

// badTimeout is the PR-7 overflow shape: a decoded millisecond count
// multiplied into a time.Duration without a clamp.
func badTimeout(w http.ResponseWriter, r *http.Request) time.Duration {
	req, err := decode(w, r)
	if err != nil {
		return 0
	}
	return time.Duration(req.TimeoutMS) * time.Millisecond // want `time.Duration multiplication with an attacker-controlled operand`
}

// goodTimeout clamps first; the bounded-above edge launders the value.
func goodTimeout(w http.ResponseWriter, r *http.Request) time.Duration {
	req, err := decode(w, r)
	if err != nil {
		return 0
	}
	if ms := req.TimeoutMS; ms > 0 && ms < maxTimeout {
		return time.Duration(ms) * time.Millisecond
	}
	return time.Second
}

// badAlloc sizes an allocation straight from a decoded field.
func badAlloc(w http.ResponseWriter, r *http.Request) [][]byte {
	req, err := decode(w, r)
	if err != nil {
		return nil
	}
	return make([][]byte, len(req.Docs)) // want `make sized by an attacker-controlled value`
}

// goodAlloc bounds the count before allocating.
func goodAlloc(w http.ResponseWriter, r *http.Request) [][]byte {
	req, err := decode(w, r)
	if err != nil || len(req.Docs) > maxDocs {
		return nil
	}
	return make([][]byte, len(req.Docs))
}

// badPattern hands an attacker-controlled pattern to std regexp, which
// has no depth bound of ours.
func badPattern(r *http.Request) (*regexp.Regexp, error) {
	pat := r.URL.Query().Get("q")
	return regexp.Compile(pat) // want `compiling an attacker-controlled pattern`
}

// ParseQuery models the repo's depth-bounded parser convention: it
// accepts untrusted input by design and returns a validated structure.
func ParseQuery(s string) (int, error) { return len(s), nil }

// goodPattern routes the untrusted query through the bounded parser.
func goodPattern(r *http.Request) []byte {
	q := r.URL.Query().Get("q")
	n, err := ParseQuery(q)
	if err != nil {
		return nil
	}
	return make([]byte, n)
}

// alloc sizes a buffer from its argument; the summary makes callers
// responsible for the bound.
func alloc(n int) []byte { return make([]byte, n) }

// badFlow reaches alloc's sink through the summary.
func badFlow(r *http.Request) []byte {
	q := r.URL.Query().Get("n")
	n, _ := strconv.Atoi(q)
	return alloc(n) // want `passed to alloc, where it reaches a sink: make sized by an attacker-controlled value`
}

// goodFlow clamps before the call.
func goodFlow(r *http.Request) []byte {
	q := r.URL.Query().Get("n")
	n, _ := strconv.Atoi(q)
	if n < 0 || n > maxN {
		return nil
	}
	return alloc(n)
}

// badHeader shows headers are sources too.
func badHeader(r *http.Request) []byte {
	n, _ := strconv.Atoi(r.Header.Get("X-Count"))
	return make([]byte, n) // want `make sized by an attacker-controlled value`
}

// waived documents a deliberate decision with the escape hatch.
func waived(r *http.Request) ([]byte, error) {
	//spanlint:ignore taintflow trusted internal endpoint, body capped upstream by the proxy
	return io.ReadAll(r.Body)
}
