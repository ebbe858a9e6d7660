package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"strings"

	"spanners/internal/gen"
	"spanners/spanner"
)

// corpusName is the name the sparse-corpus workload registers its corpus
// under.
const corpusName = "bench"

// spec is one distinct request of a workload together with what the
// spanner library says its response must contain.
type spec struct {
	endpoint string // "enumerate" or "count"
	query    string // ParseQuery expression
	mode     string // "strict", "lazy", or "" for the daemon default (lazy)
	docs     [][]byte
	corpus   bool // evaluate the registered corpus instead of body docs
	limit    int  // enumerate: matches per document, 0 = all

	path string // URL path, with ?corpus= for corpus requests
	body []byte // JSON request body

	// Filled by expect at set-up.
	counts   []*big.Int // library count per document
	rows     int64      // NDJSON match rows the response must carry
	docBytes int64      // document bytes one request evaluates
	golden   digest     // body digest of the verified warm-up response
}

// call is one timed request: the spec it must answer like, plus its
// body (query-churn varies the body while the expected answer stays).
type call struct {
	spec  *spec
	query string
	mode  string
	body  []byte
}

// workload is one traffic mix: its inputs, distinct requests and the
// request sequence the closed loop replays.
type workload struct {
	name    string
	pattern string   // formula of the evaluation query
	mode    string   // request mode of the evaluation query
	docs    [][]byte // documents every spec evaluates
	limit   int      // per-document enumerate limit
	corpus  bool     // docs are registered as a corpus during set-up
	specs   []*spec  // distinct requests; set-up sends each once
	regexp  string   // stdlib yardstick for the pattern

	// next returns timed request i; i counts from 0 within a run.
	next func(i int64) call
	// fresh returns the i-th query of the workload's compile family: a
	// query no timed request uses (query-churn), or the workload query.
	fresh func(i int64) string
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"contacts-batch", "sparse-corpus", "nested-enum", "query-churn"}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "contacts-batch":
		return contactsBatch(seed), nil
	case "sparse-corpus":
		return sparseCorpus(seed), nil
	case "nested-enum":
		return nestedEnum(seed), nil
	case "query-churn":
		return queryChurn(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// literal wraps a formula as a ParseQuery pattern literal.
func literal(pattern string) string {
	return "/" + strings.ReplaceAll(pattern, "/", `\/`) + "/"
}

// docSeed derives the generator seed of document i from the run seed.
func docSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// contactsBatch: Figure-1 pattern, strict, eight ~64 KB contacts
// documents per request, a fixed 3:1 enumerate:count mix.
func contactsBatch(seed int64) *workload {
	w := &workload{
		name:    "contacts-batch",
		pattern: gen.Figure1Pattern(),
		mode:    "strict",
		regexp:  yardstick(gen.Figure1Pattern()),
	}
	for i := 0; i < 8; i++ {
		w.docs = append(w.docs, gen.Contacts(3200, docSeed(seed, i)))
	}
	q := literal(w.pattern)
	enum := w.addSpec("enumerate", q, w.mode)
	count := w.addSpec("count", q, w.mode)
	w.next = func(i int64) call {
		if i%4 == 3 {
			return count.call()
		}
		return enum.call()
	}
	w.fresh = func(int64) string { return q }
	return w
}

// sparseCorpus: SparsePattern in the daemon's default (lazy) mode over a
// registered corpus of 16 × 1 MiB documents at 0.01% match density;
// requests alternate enumerate and count over the corpus.
func sparseCorpus(seed int64) *workload {
	w := &workload{
		name:    "sparse-corpus",
		pattern: gen.SparsePattern,
		corpus:  true,
		regexp:  yardstick(gen.SparsePattern),
	}
	for i := 0; i < 16; i++ {
		w.docs = append(w.docs, gen.SparseMatches(1<<20, 0.0001, docSeed(seed, i)))
	}
	q := literal(w.pattern)
	enum := w.addSpec("enumerate", q, "")
	count := w.addSpec("count", q, "")
	w.next = func(i int64) call {
		if i%2 == 1 {
			return count.call()
		}
		return enum.call()
	}
	w.fresh = func(int64) string { return q }
	return w
}

// nestedEnum: NestedPattern(2), strict, four 4 KiB DenseMarkers
// documents with a 20000-match limit each: output dwarfs input.
func nestedEnum(seed int64) *workload {
	w := &workload{
		name:    "nested-enum",
		pattern: gen.NestedPattern(2),
		mode:    "strict",
		limit:   20000,
		regexp:  yardstick(gen.NestedPattern(2)),
	}
	for i := 0; i < 4; i++ {
		w.docs = append(w.docs, gen.DenseMarkers(4<<10, docSeed(seed, i)))
	}
	q := literal(w.pattern)
	enum := w.addSpec("enumerate", q, w.mode)
	w.next = func(int64) call { return enum.call() }
	w.fresh = func(int64) string { return q }
	return w
}

// churnPool are bytes gen.Contacts never emits. Adding them to a
// character class changes the query text, and so the cache key, but not
// the matches on a contacts document.
const churnPool = "_#=~;:'%"

// churnTag renders id in base len(churnPool) over churnPool; distinct ids
// give distinct tags, and id 0 gives "".
func churnTag(id int64) string {
	var b []byte
	for ; id > 0; id /= int64(len(churnPool)) {
		b = append(b, churnPool[id%int64(len(churnPool))])
	}
	return string(b)
}

// churnBases are the structural Figure-1 variants of query-churn; tag
// lands inside a character class.
var churnBases = []func(tag string) string{
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <(!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*`
	},
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}>.*`
	},
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <!phone{[0-9]+-[0-9]+}>.*`
	},
	func(t string) string {
		return `.*<(!email{[a-z0-9` + t + `]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*`
	},
}

// churnHot is the size of query-churn's hot set.
const churnHot = 8

// queryChurn: every request but one in four carries a query no earlier
// request used, half strict and half lazy, over one ~2 KB contacts
// document; the fourth repeats a query of a small hot set.
func queryChurn(seed int64) *workload {
	w := &workload{
		name:    "query-churn",
		pattern: churnBases[0](""),
		mode:    "strict",
		docs:    [][]byte{balancedContacts(100, seed)},
		regexp:  yardstick(churnBases[0]("")),
	}
	bases := make([]*spec, len(churnBases))
	for b, base := range churnBases {
		bases[b] = w.addSpec("enumerate", literal(base("")), "strict")
	}
	modes := [2]string{"strict", "lazy"}
	// Ids 1..churnHot are the hot set; fresh ids start past them, offset
	// by the seed so each seed draws its own family members.
	first := churnHot + 1 + (seed%1000+1000)%1000*1_000_000
	variant := func(id int64) (*spec, string, string) {
		b := int(id/2) % len(bases)
		return bases[b], literal(churnBases[b](churnTag(id))), modes[id%2]
	}
	for id := int64(1); id <= churnHot; id++ {
		_, q, mode := variant(id)
		w.addSpec("enumerate", q, mode)
	}
	hot := w.specs[len(bases):]
	w.next = func(i int64) call {
		if i%4 == 3 {
			return hot[(i/4)%churnHot].call()
		}
		base, q, mode := variant(first + 3*(i/4) + i%4)
		return call{spec: base, query: q, mode: mode, body: requestBody(q, mode, w.docs, 0)}
	}
	w.fresh = func(i int64) string {
		_, q, _ := variant(1<<40 + i) // far past any timed id
		return q
	}
	return w
}

// balancedContacts returns the first of a seeded sequence of k-entry
// contacts documents with exactly k/2 email entries, so every seed gives
// each churn base the same number of matches.
func balancedContacts(k int, seed int64) []byte {
	for i := 0; ; i++ {
		d := gen.Contacts(k, docSeed(seed, i))
		if bytes.Count(d, []byte("@")) == k/2 {
			return d
		}
	}
}

// addSpec registers a distinct request over the workload's documents.
func (w *workload) addSpec(endpoint, query, mode string) *spec {
	s := &spec{endpoint: endpoint, query: query, mode: mode, docs: w.docs, corpus: w.corpus}
	if endpoint == "enumerate" {
		s.limit = w.limit
	}
	s.path = "/v1/" + endpoint
	if s.corpus {
		s.path += "?corpus=" + corpusName
		s.body = requestBody(query, mode, nil, s.limit)
	} else {
		s.body = requestBody(query, mode, w.docs, s.limit)
	}
	w.specs = append(w.specs, s)
	return s
}

func (s *spec) call() call { return call{spec: s, query: s.query, mode: s.mode, body: s.body} }

// requestBody renders an evaluation request body.
func requestBody(query, mode string, docs [][]byte, limit int) []byte {
	req := struct {
		Query string   `json:"query"`
		Docs  []string `json:"docs,omitempty"`
		Mode  string   `json:"mode,omitempty"`
		Limit int      `json:"limit,omitempty"`
	}{Query: query, Mode: mode, Limit: limit}
	for _, d := range docs {
		req.Docs = append(req.Docs, string(d))
	}
	return mustEncode(req)
}

// corpusBody renders the registration body of the workload's corpus.
func (w *workload) corpusBody() []byte {
	req := struct {
		Docs []string `json:"docs"`
	}{}
	for _, d := range w.docs {
		req.Docs = append(req.Docs, string(d))
	}
	return mustEncode(req)
}

func mustEncode(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // only plain strings and ints are encoded
	}
	return b.Bytes()
}

// docBytes is the total size of the workload's documents.
func (w *workload) docBytes() int64 {
	var n int64
	for _, d := range w.docs {
		n += int64(len(d))
	}
	return n
}

// expect computes every spec's expected answer with the spanner library:
// per-document counts, and rows = Σ min(count, limit).
func (w *workload) expect() error {
	memo := map[string][]*big.Int{}
	for _, s := range w.specs {
		s.docBytes = w.docBytes()
		key := s.query + "\x00" + s.mode
		counts, ok := memo[key]
		if !ok {
			sp, err := compileQuery(s.query, s.mode)
			if err != nil {
				return err
			}
			for _, d := range s.docs {
				n, exact := sp.Count(d)
				c := new(big.Int).SetUint64(n)
				if !exact {
					c = sp.CountBig(d)
				}
				counts = append(counts, c)
			}
			memo[key] = counts
		}
		s.counts, s.rows = counts, 0
		if s.endpoint != "enumerate" {
			continue
		}
		for _, c := range counts {
			s.rows += capRows(c, s.limit)
		}
	}
	return nil
}

// capRows is min(count, limit) with limit 0 meaning no cap.
func capRows(count *big.Int, limit int) int64 {
	if limit > 0 && count.Cmp(big.NewInt(int64(limit))) > 0 {
		return int64(limit)
	}
	return count.Int64()
}

// compileQuery compiles a request query the way the daemon does.
func compileQuery(query, mode string) (*spanner.Spanner, error) {
	q, err := spanner.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	if mode == "strict" {
		return q.Compile(spanner.WithStrict())
	}
	return q.Compile(spanner.WithLazy())
}

// yardstick translates a formula into the stdlib regexp the baseline
// runs: captures become groups and the leading and trailing .* go, so
// FindAll reports leftmost-first matches rather than one whole-document
// match.
func yardstick(pattern string) string {
	p := strings.TrimSuffix(strings.TrimPrefix(pattern, ".*"), ".*")
	var b strings.Builder
	b.WriteString("(?s)")
	for i := 0; i < len(p); i++ {
		switch c := p[i]; {
		case c == '\\' && i+1 < len(p):
			b.WriteString(p[i : i+2])
			i++
		case c == '!':
			j := strings.IndexByte(p[i:], '{')
			b.WriteByte('(')
			i += j
		case c == '}':
			b.WriteByte(')')
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
