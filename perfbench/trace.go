package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"time"

	"spanners/cluster"
	"spanners/corpus"
	"spanners/engine"
	"spanners/internal/core"
	"spanners/internal/eva"
	"spanners/internal/gen"
	"spanners/internal/rgx"
	"spanners/spanner"
	"spanners/spanner/cache"
)

// span is one timed call into a layer. Spans of one ladder round share
// Round; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // document or response bytes
	Items  int64  `json:"items,omitempty"` // matches, rows or documents
}

// tracer keeps spans in memory. It is used from one goroutine: the
// engine and cluster call emit on the caller's goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	round int
	off   bool // record nothing (the untraced half of the overhead probe)
}

func (t *tracer) begin(name string, parent int) int {
	if t.off {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Round: t.round, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int, bytes, items int64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End, s.Bytes, s.Items = int64(time.Since(t.t0)), bytes, items
}

// ladder replays a workload's inputs through every layer in-process.
type ladder struct {
	w       *workload
	tr      *tracer
	d       *daemon
	dense   *eva.Compiled    // L0: the strict dense automaton
	auto    core.Automaton   // L1–L3: what the daemon runs in the workload's mode
	sp      *spanner.Spanner // L4 and up
	re      *regexp.Regexp   // stdlib yardstick
	sc      core.Scratch
	workers int
	counts  []uint64 // library count per document; exact[i] false = skip
	exact   []bool
	rows    int64   // expected enumerated rows over the documents
	evals   []*spec // daemon requests over the workload query
	buf     []byte

	attempted, failed int64
	noted             map[string][]float64 // values not read off spans
}

// cacheReplay is how many requests of the workload's sequence each round
// replays through a fresh query cache.
const cacheReplay = 512

func newLadder(w *workload, d *daemon) (*ladder, error) {
	l := &ladder{w: w, d: d, tr: &tracer{t0: time.Now()}, workers: runtime.GOMAXPROCS(0),
		buf: make([]byte, 64<<10), noted: map[string][]float64{}}
	n, err := rgx.Parse(w.pattern)
	if err != nil {
		return nil, err
	}
	v, err := rgx.Compile(n)
	if err != nil {
		return nil, err
	}
	seq := v.ToExtended().Trim()
	if !seq.IsSequential() {
		seq = seq.Sequentialize().Trim()
	}
	if l.dense, err = seq.Determinize().CompileDense(); err != nil {
		return nil, err
	}
	l.auto = l.dense
	if w.mode != "strict" {
		l.auto = eva.NewLazy(seq)
	}
	if l.sp, err = compileQuery(literal(w.pattern), w.mode); err != nil {
		return nil, err
	}
	if l.re, err = regexp.Compile(w.regexp); err != nil {
		return nil, err
	}
	q := literal(w.pattern)
	for _, s := range w.specs {
		if s.query == q && s.mode == w.mode {
			l.evals = append(l.evals, s)
		}
	}
	for _, c := range l.evals[0].counts {
		l.counts = append(l.counts, c.Uint64())
		l.exact = append(l.exact, c.IsUint64())
		l.rows += capRows(c, w.limit)
	}
	return l, nil
}

func (l *ladder) check(ok bool, what string) {
	l.attempted++
	if !ok {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: round %d: %s disagrees with the library\n", l.tr.round, what)
	}
}

func (l *ladder) note(name string, v float64) { l.noted[name] = append(l.noted[name], v) }

var (
	stepSink     int
	bindingsSink []spanner.Binding
)

// round replays the workload once through every layer, bottom up.
func (l *ladder) round() {
	tr, w, ctx := l.tr, l.w, context.Background()
	docs, total, limit := w.docs, w.docBytes(), int64(w.limit)
	root := tr.begin("round", 0)

	// L0: raw dispatch, restarting at the initial state when a run dies.
	id := tr.begin("eva.step", root)
	for _, d := range docs {
		q0 := l.dense.Initial()
		q := q0
		for _, c := range d {
			t, ok := l.dense.Step(q, c)
			if !ok {
				t = q0
			}
			q = t
		}
		stepSink += q
	}
	tr.end(id, total, 0)

	// L1: the counting pass, with the prefilter's counters.
	id = tr.begin("core.count", root)
	var skipped, fallbacks int64
	for i, d := range docs {
		cs := core.NewCountStream(l.auto)
		cs.Feed(d)
		cs.Close()
		n, exact := cs.Count()
		l.check(!l.exact[i] || (exact && n == l.counts[i]), "core.count")
		skipped += cs.AccelSkippedBytes()
		if cs.AccelFellBack() {
			fallbacks++
		}
	}
	tr.end(id, total, 0)
	l.note("core.accel_skipped_ratio", float64(skipped)/float64(total))
	l.note("core.accel_fallbacks", float64(fallbacks))

	// L2 and L3: preprocessing on a warm scratch, then Iterator.Next.
	id = tr.begin("core.evaluate", root)
	var rows int64
	for _, d := range docs {
		p := tr.begin("core.preprocess", id)
		res := core.EvaluateScratch(l.auto, d, &l.sc)
		tr.end(p, int64(len(d)), 0)
		e := tr.begin("core.enumerate", id)
		it := res.Iterator()
		n := int64(0)
		for ; limit == 0 || n < limit; n++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		tr.end(e, 0, n)
		rows += n
	}
	tr.end(id, total, rows)
	l.check(rows == l.rows, "core.enumerate rows")

	// L4: the facade, whole (EnumerateContext) and split into
	// preprocessing, bare enumeration and enumeration with Bindings.
	id = tr.begin("spanner.enumerate", root)
	rows = 0
	for _, d := range docs {
		var n int64
		_ = l.sp.EnumerateContext(ctx, d, func(*spanner.Match) bool {
			n++
			return limit == 0 || n < limit
		})
		rows += n
	}
	tr.end(id, total, rows)
	l.check(rows == l.rows, "spanner.enumerate rows")

	id = tr.begin("spanner.evaluation", root)
	rows = 0
	for _, d := range docs {
		p := tr.begin("spanner.preprocess", id)
		ev := l.sp.Preprocess(d)
		tr.end(p, int64(len(d)), 0)
		e := tr.begin("spanner.next", id)
		n := l.drain(ev, false)
		tr.end(e, 0, n)
		b := tr.begin("spanner.bindings", id)
		n = l.drain(ev, true)
		tr.end(b, 0, n)
		ev.Release()
		rows += n
	}
	tr.end(id, total, rows)
	l.check(rows == l.rows, "spanner bindings rows")

	id = tr.begin("spanner.count", root)
	for i, d := range docs {
		n, exact, err := l.sp.CountContext(ctx, d)
		l.check(err == nil && (!l.exact[i] || (exact && n == l.counts[i])), "spanner.count")
	}
	tr.end(id, total, 0)

	// L5: the engine batch, as the daemon's multi-document path runs it.
	runtime.GC()
	l.engineBatch(ctx, "engine.batch", root)
	l.overheadProbe(ctx, root)

	id = tr.begin("engine.count", root)
	engine.Map(l.workers, len(docs), func(i int) error {
		_, _, err := l.sp.CountContext(ctx, docs[i])
		return err
	}, func(_ int, err error) bool {
		l.check(err == nil, "engine.count")
		return true
	})
	tr.end(id, total, 0)

	// L6: corpus registration and the scatter/gather coordinator over
	// the default four shards, with the engine's worker budget.
	id = tr.begin("corpus.register", root)
	snap, err := corpus.NewRegistry(corpus.Limits{}).Register(corpusName, docs, 4)
	tr.end(id, total, int64(len(docs)))
	l.check(err == nil, "corpus.register")
	if err == nil {
		co := cluster.New(l.sp, snap, cluster.Workers(l.workers))
		id = tr.begin("cluster.enumerate", root)
		rows = 0
		_, err := co.ProcessContext(ctx, func(_ int, ev *spanner.Evaluation, _ error) bool {
			e := tr.begin("cluster.emit", id)
			n := l.drain(ev, true)
			tr.end(e, 0, n)
			rows += n
			return true
		})
		tr.end(id, total, rows)
		l.check(err == nil && rows == l.rows, "cluster.enumerate rows")

		id = tr.begin("cluster.count", root)
		err = co.CountContext(ctx, func(ctx context.Context, _ int, data []byte) error {
			_, _, err := l.sp.CountContext(ctx, data)
			return err
		})
		tr.end(id, total, 0)
		l.check(err == nil, "cluster.count")
	}

	// L7: the same requests through the real daemon.
	for _, s := range l.evals {
		id := tr.begin("spannerd."+s.endpoint, root)
		r, err := l.d.post(s.path, s.body, false, l.buf)
		var rows int64
		if s.endpoint == "enumerate" {
			rows = s.rows
		}
		tr.end(id, r.digest.len, rows)
		l.check(err == nil && r.status == 200 && r.digest == s.golden, "spannerd."+s.endpoint)
	}

	l.compileAndCache(ctx, root)

	id = tr.begin("baseline.regexp", root)
	var found int64
	for _, d := range docs {
		found += int64(len(l.re.FindAllIndex(d, -1)))
	}
	tr.end(id, total, found)

	tr.end(root, total, 0)
}

// engineBatch enumerates the documents through one engine batch, as the
// daemon's multi-document path does, under a span of the given name.
func (l *ladder) engineBatch(ctx context.Context, name string, parent int) {
	tr, docs := l.tr, l.w.docs
	id := tr.begin(name, parent)
	var rows int64
	eng := engine.New(l.sp, engine.Workers(l.workers))
	_, err := eng.ProcessContext(ctx, len(docs),
		func(i engine.DocID) ([]byte, error) { return docs[i], nil },
		func(_ engine.DocID, ev *spanner.Evaluation, _ error) bool {
			e := tr.begin("engine.emit", id)
			n := l.drain(ev, true)
			tr.end(e, 0, n)
			rows += n
			return true
		})
	tr.end(id, l.w.docBytes(), rows)
	l.check(err == nil && rows == l.rows, name+" rows")
}

// overheadProbe times engine batches with and without span recording,
// alternating which goes first and collecting the heap before each, and
// notes the traced-to-untraced time ratio.
func (l *ladder) overheadProbe(ctx context.Context, root int) {
	tr := l.tr
	var traced, untraced time.Duration
	for k := 0; k < 4; k++ {
		for _, on := range [2]bool{k%2 == 0, k%2 != 0} {
			runtime.GC()
			tr.off = !on
			t := time.Now()
			l.engineBatch(ctx, "bench.traced_batch", root)
			if on {
				traced += time.Since(t)
			} else {
				untraced += time.Since(t)
			}
			tr.off = false
		}
	}
	l.note("bench.trace_overhead_ratio", float64(traced)/float64(untraced))
}

// drain enumerates an evaluation up to the workload's limit, calling
// Bindings on every match when bind is set, and returns the matches seen.
func (l *ladder) drain(ev *spanner.Evaluation, bind bool) int64 {
	limit := int64(l.w.limit)
	var n int64
	ev.Enumerate(func(m *spanner.Match) bool {
		if bind {
			bindingsSink = m.Bindings()
		}
		n++
		return limit == 0 || n < limit
	})
	return n
}

// compileAndCache times cold compiles of the workload's query family in
// both modes, then replays the workload's request sequence through a
// fresh query cache.
func (l *ladder) compileAndCache(ctx context.Context, root int) {
	tr := l.tr
	for k := int64(0); k < 3; k++ {
		q := l.w.fresh(int64(tr.round)*3 + k)
		for _, mode := range []string{"strict", "lazy"} {
			id := tr.begin("spanner.compile_"+mode, root)
			_, err := compileQuery(q, mode)
			tr.end(id, 0, 1)
			l.check(err == nil, "compile")
		}
	}

	id := tr.begin("cache.replay", root)
	c := cache.New(cache.Config{})
	var hit, miss []float64
	for j := int64(0); j < cacheReplay; j++ {
		k := l.w.next(j)
		mode := spanner.ModeLazy
		if k.mode == "strict" {
			mode = spanner.ModeStrict
		}
		before := c.Stats().Misses
		t := time.Now()
		_, err := c.Get(ctx, k.query, mode)
		us := float64(time.Since(t)) / 1e3
		l.check(err == nil, "cache.Get")
		if c.Stats().Misses > before {
			miss = append(miss, us)
		} else {
			hit = append(hit, us)
		}
	}
	tr.end(id, 0, cacheReplay)
	st := c.Stats()
	l.note("cache.hit_us", median(hit))
	l.note("cache.miss_us", median(miss))
	l.note("cache.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
	l.note("cache.evictions", float64(st.Evictions))
}

// delayProbe checks the constant-delay claim: Iterator.Next time per
// output over the first outputs of NestedPattern(2) on a 1 MiB versus a
// 1 KiB DenseMarkers document. Constant delay predicts a ratio near 1.
func (l *ladder) delayProbe(seed int64) (float64, error) {
	const outputs = 1 << 14
	a, err := spanner.Pipeline(gen.NestedPattern(2))
	if err != nil {
		return 0, err
	}
	dense, err := a.CompileDense()
	if err != nil {
		return 0, err
	}
	tr := l.tr
	tr.round = -1
	root := tr.begin("core.delay_probe", 0)
	perOutput := func(doc []byte, sc *core.Scratch) func() float64 {
		p := tr.begin("core.preprocess", root)
		res := core.EvaluateScratch(dense, doc, sc)
		tr.end(p, int64(len(doc)), 0)
		return func() float64 {
			it := res.Iterator()
			e := tr.begin("core.enumerate", root)
			t := time.Now()
			n := 0
			for ; n < outputs; n++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			took := time.Since(t)
			tr.end(e, int64(len(doc)), int64(n))
			return float64(took) / float64(n)
		}
	}
	var scSmall, scBig core.Scratch
	small := perOutput(gen.DenseMarkers(1<<10, docSeed(seed, 100)), &scSmall)
	big := perOutput(gen.DenseMarkers(1<<20, docSeed(seed, 101)), &scBig)
	var ratios []float64
	for rep := 0; rep < 7; rep++ {
		var s, b float64
		if rep%2 == 0 {
			s, b = small(), big()
		} else {
			b, s = big(), small()
		}
		ratios = append(ratios, b/s)
	}
	tr.end(root, 0, 0)
	return median(ratios), nil
}

// lazyDetStates evaluates the documents on a fresh lazy spanner of the
// workload query and returns the subset states it discovered.
func (l *ladder) lazyDetStates() (float64, error) {
	sp, err := compileQuery(literal(l.w.pattern), "lazy")
	if err != nil {
		return 0, err
	}
	for _, d := range l.w.docs {
		ev := sp.Preprocess(d)
		l.drain(ev, false)
		ev.Release()
	}
	return float64(sp.Stats().DetStates), nil
}

// runTraced runs ladder rounds for the run's seconds (at least three),
// then the one-off probes, writes the span file and derives the
// per-layer metrics as medians over the rounds.
func runTraced(w *workload, cfg config) (result, error) {
	d, _, wrong, err := setup(w, cfg.spannerd, true)
	if err != nil {
		return result{}, err
	}
	defer d.stop()
	l, err := newLadder(w, d)
	if err != nil {
		return result{}, err
	}
	l.attempted, l.failed = int64(len(w.specs)), wrong
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	rounds := 0
	for ; rounds < 3 || time.Now().Before(deadline); rounds++ {
		l.tr.round = rounds
		l.round()
	}
	ratio, err := l.delayProbe(cfg.seed)
	if err != nil {
		return result{}, err
	}
	states, err := l.lazyDetStates()
	if err != nil {
		return result{}, err
	}
	l.note("core.enum_delay_ratio_1m_1k", ratio)
	l.note("spanner.lazy_det_states", states)

	perRound := make([]map[string]float64, rounds)
	for r := range perRound {
		perRound[r] = l.derive(r)
	}
	res := result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		var vals []float64
		for r := range perRound {
			if v, ok := perRound[r][m.name]; ok {
				vals = append(vals, v)
			}
		}
		if vs, ok := l.noted[m.name]; ok {
			vals = vs
		}
		res.Metrics[m.name] = metric{median(vals), m.unit}
	}

	path := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := writeSpans(path, w.name, cfg.seed, rounds, l.tr.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds, %d spans in %s\n", w.name, cfg.seed, rounds, len(l.tr.spans), path)
	return res, nil
}

// perLayer lists the traced run's metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"eva.step_mb_per_s", "MB/s"},
	{"core.preprocess_mb_per_s", "MB/s"},
	{"core.count_mb_per_s", "MB/s"},
	{"core.preprocess_to_step_ratio", "ratio"},
	{"core.enum_ns_per_match", "ns"},
	{"core.accel_skipped_ratio", "ratio"},
	{"core.accel_fallbacks", "count"},
	{"core.enum_delay_ratio_1m_1k", "ratio"},
	{"spanner.enumerate_mb_per_s", "MB/s"},
	{"spanner.enumerate_to_core_ratio", "ratio"},
	{"spanner.bindings_ns_per_match", "ns"},
	{"spanner.count_mb_per_s", "MB/s"},
	{"spanner.compile_strict_us", "us"},
	{"spanner.compile_lazy_us", "us"},
	{"spanner.lazy_det_states", "count"},
	{"cache.hit_us", "us"},
	{"cache.miss_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"engine.batch_ms", "ms"},
	{"engine.to_serial_ratio", "ratio"},
	{"corpus.register_ms", "ms"},
	{"cluster.enumerate_ms", "ms"},
	{"cluster.count_ms", "ms"},
	{"cluster.to_engine_ratio", "ratio"},
	{"spannerd.overhead_ms", "ms"},
	{"spannerd.ns_per_row", "ns"},
	{"spannerd.bytes_per_row", "B"},
	{"baseline.regexp_mb_per_s", "MB/s"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// layerSum totals the spans of one name within a round.
type layerSum struct {
	ns, bytes, items float64
	n                int
}

// derive computes round r's span-based metrics.
func (l *ladder) derive(r int) map[string]float64 {
	sum := map[string]*layerSum{}
	for _, s := range l.tr.spans {
		if s.Round != r {
			continue
		}
		a := sum[s.Name]
		if a == nil {
			a = &layerSum{}
			sum[s.Name] = a
		}
		a.ns += float64(s.End - s.Start)
		a.bytes += float64(s.Bytes)
		a.items += float64(s.Items)
		a.n++
	}
	get := func(name string) layerSum {
		if a := sum[name]; a != nil {
			return *a
		}
		return layerSum{}
	}
	mbps := func(name string) float64 { a := get(name); return a.bytes / a.ns * 1e3 }
	ns := func(name string) float64 { return get(name).ns }
	perItem := func(t, items float64) float64 {
		if items == 0 {
			return 0
		}
		return t / items
	}
	m := map[string]float64{
		"eva.step_mb_per_s":               mbps("eva.step"),
		"core.preprocess_mb_per_s":        mbps("core.preprocess"),
		"core.count_mb_per_s":             mbps("core.count"),
		"core.preprocess_to_step_ratio":   ns("core.preprocess") / ns("eva.step"),
		"core.enum_ns_per_match":          perItem(ns("core.enumerate"), get("core.enumerate").items),
		"spanner.enumerate_mb_per_s":      mbps("spanner.enumerate"),
		"spanner.enumerate_to_core_ratio": ns("spanner.enumerate") / (ns("core.preprocess") + ns("core.enumerate")),
		"spanner.bindings_ns_per_match":   perItem(ns("spanner.bindings")-ns("spanner.next"), get("spanner.bindings").items),
		"spanner.count_mb_per_s":          mbps("spanner.count"),
		"spanner.compile_strict_us":       perItem(ns("spanner.compile_strict"), get("spanner.compile_strict").items) / 1e3,
		"spanner.compile_lazy_us":         perItem(ns("spanner.compile_lazy"), get("spanner.compile_lazy").items) / 1e3,
		"engine.batch_ms":                 ns("engine.batch") / 1e6,
		"engine.to_serial_ratio":          ns("engine.batch") / (ns("spanner.preprocess") + ns("spanner.bindings")),
		"corpus.register_ms":              ns("corpus.register") / 1e6,
		"cluster.enumerate_ms":            ns("cluster.enumerate") / 1e6,
		"cluster.count_ms":                ns("cluster.count") / 1e6,
		"cluster.to_engine_ratio":         ns("cluster.enumerate") / ns("engine.batch"),
		"baseline.regexp_mb_per_s":        mbps("baseline.regexp"),
	}
	// spannerd: each daemon request minus the in-process calls the daemon
	// makes for it, averaged over the workload's distinct requests.
	var over, rowOver, rows, body float64
	for _, s := range l.evals {
		d := get("spannerd." + s.endpoint)
		var inProcess float64
		switch {
		case s.corpus:
			inProcess = ns("cluster." + s.endpoint)
		case len(s.docs) > 1 && s.endpoint == "count":
			inProcess = ns("engine.count")
		case len(s.docs) > 1:
			inProcess = ns("engine.batch")
		case s.endpoint == "count":
			inProcess = ns("spanner.count")
		default:
			inProcess = ns("spanner.preprocess") + ns("spanner.bindings")
		}
		o := d.ns - inProcess
		over += o
		if s.endpoint == "enumerate" {
			rowOver += o
			rows += d.items
			body += d.bytes
		}
	}
	m["spannerd.overhead_ms"] = over / float64(len(l.evals)) / 1e6
	m["spannerd.ns_per_row"] = perItem(rowOver, rows)
	m["spannerd.bytes_per_row"] = perItem(body, rows)
	return m
}

// writeSpans writes the run's spans plus each layer's total and self
// time (duration minus the time its child spans cover).
func writeSpans(path, workload string, seed int64, rounds int, spans []span) error {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type layer struct {
		Name    string `json:"name"`
		Spans   int    `json:"spans"`
		TotalNS int64  `json:"total_ns"`
		SelfNS  int64  `json:"self_ns"`
	}
	var layers []layer
	index := map[string]int{}
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(layers)
			index[s.Name] = i
			layers = append(layers, layer{Name: s.Name})
		}
		layers[i].Spans++
		layers[i].TotalNS += s.End - s.Start
		layers[i].SelfNS += s.End - s.Start - child[s.ID]
	}
	out := struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Rounds   int     `json:"rounds"`
		Layers   []layer `json:"layers"`
		Spans    []span  `json:"spans"`
	}{workload, seed, rounds, layers, spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
