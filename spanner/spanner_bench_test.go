package spanner_test

// Benchmarks for the compile-once/evaluate-many pipeline, comparing
//
//   - dense dispatch (Compiled's 256-entry next-state table) against the
//     interface Step path (EVA's linear class-edge scan) on document-scan
//     throughput (MB/s), and
//   - strict against lazy determinization on scan throughput, per-result
//     enumeration delay, and compile time.
//
// scripts/bench.sh runs these and records the numbers in
// BENCH_spanner.json.

import (
	"bytes"
	"io"
	"testing"

	"spanners/internal/core"
	"spanners/internal/eva"
	"spanners/internal/gen"
	"spanners/internal/rgx"
	"spanners/spanner"
)

// benchAutomata builds the three evaluation backends for one pattern: the
// strict deterministic eVA (interface Step path), its dense-compiled form,
// and a lazy on-the-fly determinizer over the same sequential eVA.
func benchAutomata(tb testing.TB, pattern string) (det *eva.EVA, dense *eva.Compiled, lazy *eva.Lazy) {
	tb.Helper()
	n, err := rgx.Parse(pattern)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := rgx.Compile(n)
	if err != nil {
		tb.Fatal(err)
	}
	seq := v.ToExtended().Trim()
	if !seq.IsSequential() {
		seq = seq.Sequentialize().Trim()
	}
	det = seq.Determinize()
	dense, err = det.CompileDense()
	if err != nil {
		tb.Fatal(err)
	}
	return det, dense, eva.NewLazy(seq)
}

func benchScanDoc() []byte { return gen.Contacts(2000, 7) }

// BenchmarkEvaluateThroughput measures the Algorithm 1 preprocessing pass
// (the per-byte hot loop) over a ~45 KB contacts document. The scratch is
// reused across iterations, as the facade does per evaluation, so the
// benchmark measures the scan loop rather than arena warm-up (without the
// scratch each op paid ~3.4 MB of fresh DAG allocation).
func BenchmarkEvaluateThroughput(b *testing.B) {
	det, dense, lazy := benchAutomata(b, gen.Figure1Pattern())
	doc := benchScanDoc()
	run := func(b *testing.B, a core.Automaton) {
		var sc core.Scratch
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.EvaluateScratch(a, doc, &sc)
		}
	}
	b.Run("dense", func(b *testing.B) { run(b, dense) })
	b.Run("classscan", func(b *testing.B) { run(b, det) })
	b.Run("lazy", func(b *testing.B) { run(b, lazy) })
}

// BenchmarkPreprocessNested measures the Algorithm 1 pass where the DAG,
// not the automaton, dominates: NestedPattern(2) over a 4 KiB DenseMarkers
// document fires ~10 capture edges per byte, so each byte creates ~10
// nodes. The scratch is reused across iterations, as the facade does.
func BenchmarkPreprocessNested(b *testing.B) {
	_, dense, _ := benchAutomata(b, gen.NestedPattern(2))
	doc := gen.DenseMarkers(4<<10, 1)
	var sc core.Scratch
	core.EvaluateScratch(dense, doc, &sc) // warm the scratch
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EvaluateScratch(dense, doc, &sc)
	}
}

var stepSink int

// BenchmarkStepDispatch isolates the per-byte letter-transition cost that
// the dense table replaces: it replays the document through Step alone,
// restarting at the initial state when a run dies. EVA.Step scans the class
// edges of the state linearly; Compiled.Step is a single array load.
func BenchmarkStepDispatch(b *testing.B) {
	det, dense, _ := benchAutomata(b, gen.Figure1Pattern())
	doc := benchScanDoc()
	run := func(b *testing.B, a core.Automaton) {
		b.SetBytes(int64(len(doc)))
		q0 := a.Initial()
		for i := 0; i < b.N; i++ {
			q := q0
			for _, c := range doc {
				t, ok := a.Step(q, c)
				if !ok {
					t = q0
				}
				q = t
			}
			stepSink = q
		}
	}
	b.Run("dense", func(b *testing.B) { run(b, dense) })
	b.Run("classscan", func(b *testing.B) { run(b, det) })
}

// BenchmarkCountThroughput measures the Algorithm 3 counting pass, which
// shares the two-procedure loop but keeps only per-state counts. One
// CountStream is Reset per op, as the facade reuses a pooled one, so the
// pass runs on its warm memo.
func BenchmarkCountThroughput(b *testing.B) {
	det, dense, lazy := benchAutomata(b, gen.Figure1Pattern())
	doc := benchScanDoc()
	run := func(b *testing.B, a core.Automaton) {
		cs := core.NewCountStream(a)
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cs.Reset(a)
			cs.Feed(doc)
			cs.Count()
		}
	}
	b.Run("dense", func(b *testing.B) { run(b, dense) })
	b.Run("classscan", func(b *testing.B) { run(b, det) })
	b.Run("lazy", func(b *testing.B) { run(b, lazy) })
}

// BenchmarkEnumerationDelay measures the per-result delay of Algorithm 2 on
// the nested-variable workload (quadratically many outputs), after the
// preprocessing pass has run: each op is one Next() call.
func BenchmarkEnumerationDelay(b *testing.B) {
	det, dense, lazy := benchAutomata(b, gen.NestedPattern(2))
	doc := gen.RandomDoc(64, "ab", 1)
	run := func(b *testing.B, a core.Automaton) {
		res := core.Evaluate(a, doc)
		it := res.Iterator()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := it.Next(); !ok {
				it = res.Iterator()
			}
		}
	}
	b.Run("dense", func(b *testing.B) { run(b, dense) })
	b.Run("classscan", func(b *testing.B) { run(b, det) })
	b.Run("lazy", func(b *testing.B) { run(b, lazy) })
}

// BenchmarkCompile measures the one-time cost the facade amortizes across
// documents: strict pays determinization plus the dense table up front,
// lazy defers subset construction to evaluation. The churn variant is
// query-churn's cache miss in-process: each op parses, keys and compiles a
// query-churn request no earlier op used (see churnQuery), alternating
// strict and lazy. The cold pair is one query-churn request end to end:
// each op compiles a Figure-1 variant no earlier op used (a fresh tag
// inside a character class, from bytes the contacts document never holds)
// and enumerates it over a ~2 KB contacts document, so lazy pays its
// subset construction inside the op too.
func BenchmarkCompile(b *testing.B) {
	pattern := gen.Figure1Pattern()
	b.Run("strict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spanner.Compile(pattern, spanner.WithStrict()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spanner.Compile(pattern, spanner.WithLazy()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("churn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compileChurn(b, churnHot+1+i)
		}
	})
	doc := gen.Contacts(100, 5)
	for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
		b.Run("cold/"+mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := spanner.Compile(churnBases[0](churnTag(i+1)), spanner.WithMode(mode))
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				s.Enumerate(doc, func(*spanner.Match) bool { n++; return true })
				if n == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkFacadeEnumerate exercises the whole public path — preprocessing
// plus full enumeration through the Match scratch buffer — per document.
func BenchmarkFacadeEnumerate(b *testing.B) {
	doc := benchScanDoc()
	for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
		s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithMode(mode))
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				n := 0
				s.Enumerate(doc, func(*spanner.Match) bool { n++; return true })
				if n == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkParallelCount measures Count on one spanner shared by every
// goroutine of b.RunParallel (GOMAXPROCS of them), as an engine batch
// shares its spanner across workers: ns/op falls with -cpu while the
// passes scale, and stays flat where they serialize.
func BenchmarkParallelCount(b *testing.B) {
	doc := gen.Contacts(1000, 7)
	for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
		s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithMode(mode))
		want, _ := s.Count(doc)
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if n, _ := s.Count(doc); n != want {
						b.Errorf("count %d, want %d", n, want)
						return
					}
				}
			})
		})
	}
}

// BenchmarkIsEmptyDeadPrefix measures the counting pass on a document the
// automaton rejects immediately: an anchored pattern dies on the first
// byte, so the early-exit in the counting loops makes IsEmpty proportional
// to where the automaton dies, not to the document length (1 MB here).
// ns_per_op is the tracked metric — a throughput figure would count the
// ~1 MB the early exit deliberately never scans.
func BenchmarkIsEmptyDeadPrefix(b *testing.B) {
	s := spanner.MustCompile(`abc(a|b|c)*`)
	doc := make([]byte, 1<<20)
	for i := range doc {
		doc[i] = 'z'
	}
	for i := 0; i < b.N; i++ {
		if !s.IsEmpty(doc) {
			b.Fatal("document unexpectedly matched")
		}
	}
}

// BenchmarkAlgebraEnumerate measures the full facade path on composed
// spanners: a union of two extraction patterns and a join of an extraction
// pattern with a boolean filter (the document-intersection use of natural
// join). Composed spanners run the same dense-dispatch scan and
// constant-delay enumeration as directly compiled ones.
func BenchmarkAlgebraEnumerate(b *testing.B) {
	doc := benchScanDoc()
	contacts := spanner.Pattern(gen.Figure1Pattern())
	numbers := spanner.Pattern(`.*!num{(0|1|2|3|4|5|6|7|8|9)+}.*`)
	filter := spanner.Pattern(`.*@.*`)
	union, err := contacts.Union(numbers).Compile()
	if err != nil {
		b.Fatal(err)
	}
	join, err := contacts.Join(filter).Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		s    *spanner.Spanner
	}{{"union", union}, {"join", join}} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				n := 0
				bench.s.Enumerate(doc, func(*spanner.Match) bool { n++; return true })
				if n == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// BenchmarkSparseScanThroughput measures the literal-prefiltered scan over
// 1 MB corpora of varying match density — the workload the accelerated
// scan path exists for. Density 0 is the pure-prefilter regime (every byte
// is provably inert); rising densities hand progressively more of the
// document to the full evaluator. The off/ variants pin the unaccelerated
// baseline the speedup is measured against.
func BenchmarkSparseScanThroughput(b *testing.B) {
	on := spanner.MustCompile(gen.SparsePattern)
	off := spanner.MustCompile(gen.SparsePattern, spanner.WithoutPrefilter())
	for _, d := range []struct {
		name    string
		density float64
	}{
		{"d0", 0},
		{"d0.01pct", 0.0001},
		{"d1pct", 0.01},
		{"d10pct", 0.1},
	} {
		doc := gen.SparseMatches(1<<20, d.density, 7)
		run := func(b *testing.B, s *spanner.Spanner) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				s.Count(doc)
			}
		}
		b.Run(d.name+"/prefilter", func(b *testing.B) { run(b, on) })
		b.Run(d.name+"/off", func(b *testing.B) { run(b, off) })
	}
}

// BenchmarkScanShapes measures the two skip-search shapes the sparse
// corpora leave out, over 1 MB each. rareexit is `.*!x{[.w]z}.*` over
// "aaaaaaaaaw"…: a skip is attempted every ten bytes and one of the two
// exit bytes never occurs, so a search that rescanned the chunk for it on
// every attempt would go quadratic. manyexits is `.*!x{[A-Z][a-z]+}.*`
// over lowercase text with one capitalized word: 26 exit bytes, so the
// skip tests each byte against the inert set instead of running memchr.
func BenchmarkScanShapes(b *testing.B) {
	lower := gen.RandomDoc(1<<20, "abcdefghijklmnopqrstuvwxyz ", 3)
	lower[len(lower)/2], lower[len(lower)/2+1] = 'Q', 'u'
	for _, shape := range []struct {
		name, pattern string
		doc           []byte
	}{
		{"rareexit", `.*!x{[.w]z}.*`, bytes.Repeat([]byte("aaaaaaaaaw"), 1<<20/10)},
		{"manyexits", `.*!x{[A-Z][a-z]+}.*`, lower},
	} {
		on := spanner.MustCompile(shape.pattern)
		off := spanner.MustCompile(shape.pattern, spanner.WithoutPrefilter())
		run := func(b *testing.B, s *spanner.Spanner) {
			b.SetBytes(int64(len(shape.doc)))
			for i := 0; i < b.N; i++ {
				s.Count(shape.doc)
			}
		}
		b.Run(shape.name+"/prefilter", func(b *testing.B) { run(b, on) })
		b.Run(shape.name+"/off", func(b *testing.B) { run(b, off) })
	}
}

// BenchmarkTableMemory reports the dense transition-table footprint as
// bytes_per_state — the metric the byte-class compression moves (a full
// 256-column row costs 1 KiB/state; class-compressed rows a few dozen
// bytes). No per-op work: the table is built once outside the loop.
func BenchmarkTableMemory(b *testing.B) {
	for _, bench := range []struct {
		name    string
		pattern string
	}{
		{"figure1", gen.Figure1Pattern()},
		{"sparse", gen.SparsePattern},
		{"nested", gen.NestedPattern(2)},
	} {
		_, dense, _ := benchAutomata(b, bench.pattern)
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stepSink = dense.TableBytes()
			}
			b.ReportMetric(float64(dense.TableBytes())/float64(dense.NumStates()), "bytes_per_state")
			b.ReportMetric(float64(dense.NumClasses()), "byte_classes")
		})
	}
}

// chunkedBenchReader replays a document in fixed-size chunks for the
// streaming benchmarks.
type chunkedBenchReader struct {
	data []byte
	pos  int
	size int
}

func (r *chunkedBenchReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := min(r.size, min(len(p), len(r.data)-r.pos))
	copy(p, r.data[r.pos:r.pos+n])
	r.pos += n
	return n, nil
}

// BenchmarkStreamingThroughput measures the incremental evaluation path —
// EnumerateReader with chunked input and CountReader's never-materialized
// counting pass — against the whole-document facade entries above.
func BenchmarkStreamingThroughput(b *testing.B) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	doc := benchScanDoc()
	for _, size := range []int{4 << 10, 64 << 10} {
		name := "enumerate/chunk4K"
		if size == 64<<10 {
			name = "enumerate/chunk64K"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				err := s.EnumerateReader(&chunkedBenchReader{data: doc, size: size}, func(*spanner.Match) bool {
					n++
					return true
				})
				if err != nil || n == 0 {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
	b.Run("count/chunk64K", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.CountReader(&chunkedBenchReader{data: doc, size: 64 << 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
