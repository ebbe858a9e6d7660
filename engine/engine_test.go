package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spanners/engine"
	"spanners/internal/gen"
	"spanners/spanner"
)

// forceProcs raises GOMAXPROCS for the duration of a test, so the engine
// (which caps its pool at the hardware parallelism) genuinely runs
// concurrent workers even on single-CPU hosts — the schedules the
// determinism and race assertions need.
func forceProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// batch builds a mixed batch of n documents: contacts of varying sizes,
// log lines, empty documents, and documents with no matches.
func batch(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		switch i % 5 {
		case 0:
			docs[i] = gen.Contacts(1+i%37, int64(i))
		case 1:
			docs[i] = gen.LogDoc(1+i%11, int64(i))
		case 2:
			docs[i] = nil
		case 3:
			docs[i] = []byte("no matches in this one")
		default:
			docs[i] = gen.Contacts(40, int64(i))
		}
	}
	return docs
}

// serialTrace is the reference output: the (doc index, match key) sequence
// of a serial loop over the batch.
func serialTrace(s *spanner.Spanner, docs [][]byte) []string {
	var out []string
	for i, doc := range docs {
		s.Enumerate(doc, func(m *spanner.Match) bool {
			out = append(out, fmt.Sprintf("%d:%s", i, m.Key()))
			return true
		})
	}
	return out
}

func engineTrace(e *engine.Engine, docs [][]byte) []string {
	var out []string
	for id, m := range e.Run(docs) {
		out = append(out, fmt.Sprintf("%d:%s", id, m.Key()))
	}
	return out
}

func TestRunDeterministicMatchesSerial(t *testing.T) {
	forceProcs(t, 8)
	docs := batch(120)
	for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
		s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithMode(mode))
		want := serialTrace(s, docs)
		if len(want) == 0 {
			t.Fatal("batch produced no matches; the test would be vacuous")
		}
		for _, workers := range []int{1, 2, 8} {
			e := engine.New(s, engine.Workers(workers))
			got := engineTrace(e, docs)
			if len(got) != len(want) {
				t.Fatalf("mode %v workers %d: %d outputs, want %d", mode, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mode %v workers %d: output %d = %s, want %s",
						mode, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRunRepeatedUseIsStable(t *testing.T) {
	forceProcs(t, 8)
	// The same Engine must be reusable, and concurrent scratch pooling must
	// not leak state between batches.
	s := spanner.MustCompile(gen.Figure1Pattern())
	e := engine.New(s, engine.Workers(8))
	docs := batch(40)
	first := engineTrace(e, docs)
	for run := 0; run < 3; run++ {
		if got := engineTrace(e, docs); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("run %d differs from first run", run)
		}
	}
}

func TestRunEarlyStop(t *testing.T) {
	forceProcs(t, 8)
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs := batch(60)
	want := serialTrace(s, docs)
	e := engine.New(s, engine.Workers(4))
	for _, stopAfter := range []int{0, 1, 7, len(want) - 1} {
		var got []string
		for id, m := range e.Run(docs) {
			if len(got) == stopAfter {
				break
			}
			got = append(got, fmt.Sprintf("%d:%s", id, m.Key()))
		}
		if len(got) != stopAfter {
			t.Fatalf("stopAfter %d: got %d", stopAfter, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("stopAfter %d: output %d = %s, want %s", stopAfter, i, got[i], want[i])
			}
		}
	}
}

func TestRunClonedMatchesAreRetainable(t *testing.T) {
	forceProcs(t, 8)
	// Run yields reused scratch buffers (the facade's ownership rule);
	// Cloned matches must stay valid after the whole batch — and its
	// pooled scratches — have been churned through.
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs := batch(30)
	type saved struct {
		id  engine.DocID
		m   *engine.Match
		key string
		txt string
	}
	var all []saved
	e := engine.New(s, engine.Workers(8))
	for id, m := range e.Run(docs) {
		c := m.Clone()
		txt, _ := c.Text("name")
		all = append(all, saved{id, c, c.Key(), txt})
	}
	for i, sv := range all {
		if sv.m.Key() != sv.key {
			t.Fatalf("clone %d mutated after retention: %s != %s", i, sv.m.Key(), sv.key)
		}
		if txt, _ := sv.m.Text("name"); txt != sv.txt {
			t.Fatalf("clone %d text mutated after retention: %q != %q", i, txt, sv.txt)
		}
	}
}

func TestCollectMatchesAreRetainable(t *testing.T) {
	// The batch-collection path for consumers that do want ownership:
	// Collect's matches are independent copies.
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs := batch(20)
	var all []*spanner.Match
	var wantKeys []string
	for _, doc := range docs {
		before := len(all)
		all = s.Collect(all, doc, 0)
		n := 0
		s.Enumerate(doc, func(m *spanner.Match) bool { n++; return true })
		if len(all)-before != n {
			t.Fatalf("Collect returned %d matches, Enumerate %d", len(all)-before, n)
		}
	}
	for _, m := range all {
		wantKeys = append(wantKeys, m.Key())
	}
	// Churn the pool, then re-check the retained matches.
	for i := 0; i < 5; i++ {
		s.Enumerate(gen.Contacts(50, int64(i)), func(*spanner.Match) bool { return true })
	}
	for i, m := range all {
		if m.Key() != wantKeys[i] {
			t.Fatalf("collected match %d corrupted", i)
		}
	}
}

func TestLimit(t *testing.T) {
	forceProcs(t, 8)
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs := batch(25)
	const limit = 2

	// Reference: serial enumeration stopping after limit matches per doc.
	var want []string
	for i, doc := range docs {
		n := 0
		s.Enumerate(doc, func(m *spanner.Match) bool {
			want = append(want, fmt.Sprintf("%d:%s", i, m.Key()))
			n++
			return n < limit
		})
	}

	e := engine.New(s, engine.Workers(4), engine.Limit(limit))
	got := engineTrace(e, docs)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("limited run disagrees with serial:\ngot  %v\nwant %v", got, want)
	}
	perDoc := map[string]int{}
	for _, g := range got {
		perDoc[strings.SplitN(g, ":", 2)[0]]++
	}
	for id, n := range perDoc {
		if n > limit {
			t.Fatalf("doc %s emitted %d matches, limit %d", id, n, limit)
		}
	}
}

func TestCount(t *testing.T) {
	forceProcs(t, 8)
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs := batch(50)
	e := engine.New(s, engine.Workers(8))
	counts, exact := e.Count(docs)
	if len(counts) != len(docs) || len(exact) != len(docs) {
		t.Fatalf("result lengths %d/%d, want %d", len(counts), len(exact), len(docs))
	}
	for i, doc := range docs {
		want, wantExact := s.Count(doc)
		if counts[i] != want || exact[i] != wantExact {
			t.Fatalf("doc %d: Count = (%d, %v), want (%d, %v)", i, counts[i], exact[i], want, wantExact)
		}
	}
}

func TestEmptyBatchAndDefaults(t *testing.T) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	e := engine.New(s) // default workers
	for id, m := range e.Run(nil) {
		t.Fatalf("unexpected output %d %v", id, m)
	}
	counts, exact := e.Count(nil)
	if len(counts) != 0 || len(exact) != 0 {
		t.Fatal("empty batch must produce empty counts")
	}
	// Workers(0) and negative values fall back to the default.
	for _, w := range []int{0, -3} {
		e := engine.New(s, engine.Workers(w))
		if got := engineTrace(e, batch(5)); len(got) == 0 {
			t.Fatal("default-worker engine produced no output")
		}
	}
}

func TestProcessBackpressureLiveness(t *testing.T) {
	forceProcs(t, 8)
	// Regression guard for a worker-pool deadlock: workers must acquire
	// their inflight ticket BEFORE dequeuing an index. In the old
	// ticket-after-dequeue order, a worker preempted between the dequeue
	// (holding the lowest undrained index) and the ticket select could
	// watch the rest of the pool ticket the entire 2×workers window with
	// higher indexes; the in-order consumer then waited on that lowest
	// index forever and no ticket was ever freed. The schedule is
	// nondeterministic, so this is a stress test with a liveness timeout:
	// many small documents cycle tickets fast, and the yielding loader
	// perturbs worker scheduling.
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs := batch(400)
	e := engine.New(s, engine.Workers(4))
	done := make(chan struct{})
	// The goroutine must not touch t after a timeout ends the test, so it
	// records failures and the main goroutine reports them — only on the
	// done path, which happens-before the read.
	var fails []string
	go func() {
		defer close(done)
		for round := 0; round < 8; round++ {
			n := 0
			e.Process(len(docs),
				func(i engine.DocID) ([]byte, error) {
					runtime.Gosched()
					return docs[i], nil
				},
				func(i engine.DocID, ev *spanner.Evaluation, err error) bool {
					if err != nil {
						fails = append(fails, fmt.Sprintf("round %d doc %d: unexpected error %v", round, i, err))
					}
					n++
					return true
				})
			if n != len(docs) {
				fails = append(fails, fmt.Sprintf("round %d: emitted %d documents, want %d", round, n, len(docs)))
			}
		}
	}()
	select {
	case <-done:
		for _, f := range fails {
			t.Error(f)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Process deadlocked under loader backpressure")
	}
}

func TestMapOrderedAndEarlyStop(t *testing.T) {
	forceProcs(t, 8)
	const n = 60
	fn := func(i int) int {
		runtime.Gosched()
		return i * i
	}

	var got []int
	engine.Map(8, n, fn, func(i, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != n {
		t.Fatalf("emitted %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d (out of order?)", i, v, i*i)
		}
	}

	// Early stop: exactly stopAt+1 emits, in order. (fn skipping after the
	// stop is best-effort, so no call-count bound is asserted.)
	const stopAt = 5
	emits := 0
	engine.Map(2, n, fn, func(i, v int) bool {
		if i != emits || v != i*i {
			t.Fatalf("emit (%d, %d), want (%d, %d)", i, v, emits, emits*emits)
		}
		emits++
		return i < stopAt
	})
	if emits != stopAt+1 {
		t.Fatalf("emitted %d results after stop, want %d", emits, stopAt+1)
	}

	// Degenerate shapes.
	engine.Map(0, 0, fn, func(int, int) bool { t.Fatal("emit on empty batch"); return false })
	ran := false
	engine.Map(-1, 1, func(int) int { ran = true; return 0 }, func(int, int) bool { return true })
	if !ran {
		t.Fatal("workers < 1 must still run the batch")
	}
}

func TestProcessLoaderErrorsInOrder(t *testing.T) {
	forceProcs(t, 8)
	// Process must deliver a load error at the document's position, after
	// every earlier document's matches; stopping there must not leak. A
	// one-document batch runs inline, a larger one on the pool.
	s := spanner.MustCompile(gen.Figure1Pattern())
	e := engine.New(s, engine.Workers(4))
	for _, tc := range []struct {
		name   string
		n      int
		failAt engine.DocID
	}{
		{"one", 1, 0},
		{"many", 20, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			docs := batch(tc.n)
			var trace []string
			e.Process(len(docs),
				func(i engine.DocID) ([]byte, error) {
					if i == tc.failAt {
						return nil, fmt.Errorf("load %d failed", i)
					}
					return docs[i], nil
				},
				func(i engine.DocID, ev *spanner.Evaluation, err error) bool {
					if err != nil {
						trace = append(trace, fmt.Sprintf("%d:ERR", i))
						return false
					}
					ev.Enumerate(func(m *spanner.Match) bool {
						trace = append(trace, fmt.Sprintf("%d:%s", i, m.Key()))
						return true
					})
					return true
				})

			want := serialTrace(s, docs[:tc.failAt])
			want = append(want, fmt.Sprintf("%d:ERR", tc.failAt))
			if fmt.Sprint(trace) != fmt.Sprint(want) {
				t.Fatalf("trace diverges from serial-with-error:\ngot  %v\nwant %v", trace, want)
			}
		})
	}
}

// TestComposedSpannerThroughEngine checks that a query-composed spanner is
// an ordinary citizen of the batch pool: a union and a join-of-union
// spanner run through Engine.Run produce exactly the serial trace, at
// every worker count and in both determinization modes.
func TestComposedSpannerThroughEngine(t *testing.T) {
	forceProcs(t, 8)
	docs := batch(60)
	emails := spanner.Pattern(gen.Figure1Pattern())
	numbers := spanner.Pattern(`.*!num{(0|1|2|3|4|5|6|7|8|9)+}.*`)
	union := emails.Union(numbers)
	for _, mode := range []spanner.Option{spanner.WithStrict(), spanner.WithLazy()} {
		u, err := union.Compile(mode)
		if err != nil {
			t.Fatal(err)
		}
		j, err := union.Join(spanner.Pattern(`.*@.*`)).Compile(mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*spanner.Spanner{u, j} {
			want := serialTrace(s, docs)
			if len(want) == 0 {
				t.Fatalf("%s: batch produced no matches; the test would be vacuous", s.Pattern())
			}
			for _, workers := range []int{1, 4, 8} {
				e := engine.New(s, engine.Workers(workers))
				if got := engineTrace(e, docs); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s workers %d: engine trace diverges from serial", s.Pattern(), workers)
				}
			}
		}
	}
}

// settleGoroutines polls until the goroutine count drops back to at most
// base, failing the test after a generous deadline. It gives cancelled
// workers a moment to observe the stop and exit.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestProcessContextBackgroundMatchesProcess pins that ProcessContext with
// a background context is Process: same deliveries, nil error.
func TestProcessContextBackgroundMatchesProcess(t *testing.T) {
	forceProcs(t, 4)
	s := spanner.MustCompile(gen.Figure1Pattern())
	docs := batch(40)
	eng := engine.New(s)

	var viaProcess, viaCtx []string
	eng.Process(len(docs),
		func(i engine.DocID) ([]byte, error) { return docs[i], nil },
		func(i engine.DocID, ev *spanner.Evaluation, err error) bool {
			ev.Enumerate(func(m *engine.Match) bool {
				viaProcess = append(viaProcess, fmt.Sprintf("%d:%s", i, m.Key()))
				return true
			})
			return true
		})
	emitted, err := eng.ProcessContext(context.Background(), len(docs),
		func(i engine.DocID) ([]byte, error) { return docs[i], nil },
		func(i engine.DocID, ev *spanner.Evaluation, err error) bool {
			ev.Enumerate(func(m *engine.Match) bool {
				viaCtx = append(viaCtx, fmt.Sprintf("%d:%s", i, m.Key()))
				return true
			})
			return true
		})
	if err != nil {
		t.Fatalf("ProcessContext(Background) = %v, want nil", err)
	}
	if emitted != len(docs) {
		t.Fatalf("emitted = %d, want the full batch of %d", emitted, len(docs))
	}
	if fmt.Sprint(viaProcess) != fmt.Sprint(viaCtx) {
		t.Fatal("ProcessContext(Background) deliveries differ from Process")
	}
}

// TestProcessContextCancellationLeakFree is the cancellation leak test: a
// batch cancelled mid-flight must return ctx.Err() promptly, never call
// emit after the cancellation is observed, skip most of the queued work,
// and leave no goroutines behind. The one-document batch, which runs
// inline, is cancelled from its loader; the pool batch from emit.
func TestProcessContextCancellationLeakFree(t *testing.T) {
	forceProcs(t, 4)
	s := spanner.MustCompile(gen.Figure1Pattern())
	eng := engine.New(s, engine.Workers(4))
	for _, tc := range []struct {
		name     string
		n        int
		cancelAt int   // cancel inside this emit call; 0 cancels in the first load
		maxLoads int64 // loads allowed to start, cancellation included
	}{
		{"one", 1, 0, 1},
		// A 4-worker pool (≤ 8 inflight tickets) stopping at document 3:
		// the vast majority of the 256 queued loads must never start.
		{"many", 256, 3, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			var loads atomic.Int64
			emits := 0
			emitted, err := eng.ProcessContext(ctx, tc.n,
				func(i engine.DocID) ([]byte, error) {
					if loads.Add(1) == 1 && tc.cancelAt == 0 {
						cancel()
					}
					return gen.Contacts(20, int64(i)), nil
				},
				func(i engine.DocID, ev *spanner.Evaluation, e error) bool {
					emits++
					if emits == tc.cancelAt {
						cancel()
					}
					return true
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want Canceled", err)
			}
			if emits != tc.cancelAt {
				t.Fatalf("emit ran %d times; the consumer must never emit after observing the cancellation", emits)
			}
			if emitted != emits {
				t.Fatalf("ProcessContext reported %d emitted but emit ran %d times", emitted, emits)
			}
			settleGoroutines(t, base)
			if l := loads.Load(); l > tc.maxLoads {
				t.Fatalf("%d of %d documents were loaded after a cancellation at emit %d", l, tc.n, tc.cancelAt)
			}
		})
	}
}

// TestStoppedBatchReleasesEvaluations pins Process's release contract:
// every evaluation goes back to the spanner's pool, whether it was emitted
// or drained after emit stopped the batch. A warm batch then allocates
// only its own bookkeeping: less than one evaluation that is never
// released, and no more when emit stops after the first document than
// when it runs to the end.
func TestStoppedBatchReleasesEvaluations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// A collection would move the pool to its victim cache and a second
	// one would empty it; keep the measurement about reuse alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const n = 8
	s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithStrict())
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = gen.Contacts(40, int64(i))
	}
	eng := engine.New(s, engine.Workers(1))
	batch := func(stopAfter int) func() {
		return func() {
			eng.Process(n,
				func(i engine.DocID) ([]byte, error) { return docs[i], nil },
				func(i engine.DocID, _ *spanner.Evaluation, _ error) bool { return int(i)+1 < stopAfter })
		}
	}
	// Two collections empty the pool of what earlier tests left in it,
	// so that every unreleased evaluation starts on fresh scratch.
	runtime.GC()
	runtime.GC()
	leaked := testing.AllocsPerRun(20, func() { s.Preprocess(docs[0]) })
	full := testing.AllocsPerRun(20, batch(n))
	stopped := testing.AllocsPerRun(20, batch(1))
	if full >= leaked {
		t.Errorf("a warm batch of %d documents made %v allocations per run, not fewer than one unreleased evaluation (%v)", n, full, leaked)
	}
	if stopped > full {
		t.Errorf("a batch stopped after its first document made %v allocations per run, more than the full batch's %v", stopped, full)
	}
}

// TestProcessContextCancelWhileConsumerBlocked cancels while the consumer
// is waiting on a document whose load never completes on its own: the
// consumer must return promptly anyway (select on ctx.Done), and the
// worker pool must unwind once the load is released.
func TestProcessContextCancelWhileConsumerBlocked(t *testing.T) {
	forceProcs(t, 2)
	base := runtime.NumGoroutine()
	s := spanner.MustCompile(`!x{a+}`)
	eng := engine.New(s, engine.Workers(2))
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})

	done := make(chan error, 1)
	go func() {
		_, err := eng.ProcessContext(ctx, 4,
			func(i engine.DocID) ([]byte, error) {
				if i == 0 {
					<-release // blocks until after the cancellation
				}
				return []byte("aaa"), nil
			},
			func(engine.DocID, *spanner.Evaluation, error) bool {
				t.Error("emit must not run: document 0 never became ready before cancellation")
				return false
			})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the pool block on document 0
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ProcessContext did not return after cancellation (consumer stuck on a blocked load)")
	}
	close(release)
	settleGoroutines(t, base)
}

// TestProcessContextCancelsInflightPreprocess checks that cancellation
// aborts a preprocessing pass that is already running: one huge document
// occupies a worker, the context is cancelled mid-pass, and the batch
// returns without waiting for the pass to finish a full scan.
func TestProcessContextCancelsInflightPreprocess(t *testing.T) {
	forceProcs(t, 2)
	base := runtime.NumGoroutine()
	s := spanner.MustCompile(gen.Figure1Pattern())
	doc := gen.Contacts(60000, 1) // ~1.4 MB: many 64 KiB cancellation windows
	eng := engine.New(s, engine.Workers(1))
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := eng.ProcessContext(ctx, 1,
			func(engine.DocID) ([]byte, error) { close(started); return doc, nil },
			func(engine.DocID, *spanner.Evaluation, error) bool { return true })
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not abort the in-flight preprocessing pass")
	}
	settleGoroutines(t, base)
}

// TestProcessContextCompletedBatchReturnsNil pins the contract that a
// batch whose every document was emitted returns nil even if the context
// is cancelled right as the batch finishes.
func TestProcessContextCompletedBatchReturnsNil(t *testing.T) {
	s := spanner.MustCompile(`!x{a+}`)
	eng := engine.New(s, engine.Workers(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 4
	emits := 0
	emitted, err := eng.ProcessContext(ctx, n,
		func(engine.DocID) ([]byte, error) { return []byte("aa"), nil },
		func(i engine.DocID, ev *spanner.Evaluation, e error) bool {
			emits++
			if int(i) == n-1 {
				cancel() // fires after the last document is already delivered
			}
			return true
		})
	if err != nil || emits != n || emitted != n {
		t.Fatalf("completed batch: err = %v, emits = %d, emitted = %d; want nil, %d, %d", err, emits, emitted, n, n)
	}
}

// TestProcessContextEmittedAccounting pins the partial-batch accounting
// contract a server's partial-response trailer depends on: whenever and
// however cancellation lands, the emitted count ProcessContext returns
// equals the number of emit calls that actually ran, those calls covered
// exactly the DocID prefix [0, emitted), and the skipped remainder is
// therefore exactly [emitted, n) — never an over- or under-count.
func TestProcessContextEmittedAccounting(t *testing.T) {
	forceProcs(t, 4)
	s := spanner.MustCompile(gen.Figure1Pattern())
	eng := engine.New(s, engine.Workers(4))
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"one", 1},
		{"many", 48},
	} {
		t.Run(tc.name, func(t *testing.T) { testEmittedAccounting(t, eng, tc.n) })
	}
}

func testEmittedAccounting(t *testing.T, eng *engine.Engine, n int) {
	check := func(t *testing.T, emitted int, err error, seen []int, stopped bool) {
		t.Helper()
		if emitted != len(seen) {
			t.Fatalf("reported emitted = %d, but emit ran %d times", emitted, len(seen))
		}
		for i, id := range seen {
			if id != i {
				t.Fatalf("emit order broken: call %d delivered DocID %d (deliveries: %v)", i, id, seen)
			}
		}
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want a context error", err)
			}
			if emitted == n && stopped {
				t.Fatalf("full batch emitted yet err = %v", err)
			}
		case !stopped:
			if emitted != n {
				t.Fatalf("nil error without an emit stop, but emitted = %d of %d", emitted, n)
			}
		}
	}

	// Cancellation from inside emit, at every possible prefix length.
	for at := 1; at <= min(6, n); at++ {
		ctx, cancel := context.WithCancel(context.Background())
		var seen []int
		emitted, err := eng.ProcessContext(ctx, n,
			func(i engine.DocID) ([]byte, error) { return gen.Contacts(5, int64(i)), nil },
			func(i engine.DocID, ev *spanner.Evaluation, e error) bool {
				seen = append(seen, int(i))
				if len(seen) == at {
					cancel()
				}
				return true
			})
		cancel()
		check(t, emitted, err, seen, false)
		if emitted != at {
			t.Fatalf("cancel at emit %d: emitted = %d", at, emitted)
		}
	}

	// External cancellation racing the consumer: repeat with deadlines that
	// land at arbitrary points of the batch (including mid-preprocessing
	// and between delivery and the consumer's cancellation check).
	for trial := 0; trial < 25; trial++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(trial)*200*time.Microsecond)
		var seen []int
		emitted, err := eng.ProcessContext(ctx, n,
			func(i engine.DocID) ([]byte, error) { return gen.Contacts(40, int64(i)), nil },
			func(i engine.DocID, ev *spanner.Evaluation, e error) bool {
				seen = append(seen, int(i))
				return true
			})
		cancel()
		check(t, emitted, err, seen, false)
	}

	// emit stopping the batch itself: emitted counts the stopping call too,
	// and the error stays nil.
	{
		stopAt := min(7, n)
		var seen []int
		emitted, err := eng.ProcessContext(context.Background(), n,
			func(i engine.DocID) ([]byte, error) { return gen.Contacts(5, int64(i)), nil },
			func(i engine.DocID, ev *spanner.Evaluation, e error) bool {
				seen = append(seen, int(i))
				return len(seen) < stopAt
			})
		check(t, emitted, err, seen, true)
		if emitted != stopAt || err != nil {
			t.Fatalf("emit-stop batch: emitted = %d, err = %v; want %d, nil", emitted, err, stopAt)
		}
	}
}

// TestConcurrentBatchesShareOneEngine pins the shard-local-reuse contract
// the cluster scatter layer leans on: one Engine instance (immutable after
// New) may run many ProcessContext batches concurrently — one per corpus
// shard — each producing its own exact serial-order stream. Run under
// -race in CI this is the concurrency pin for sharing the engine (and its
// compiled spanner) across shard goroutines.
func TestConcurrentBatchesShareOneEngine(t *testing.T) {
	forceProcs(t, 8)
	s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithLazy())
	eng := engine.New(s, engine.Workers(2))

	const shards = 6
	batches := make([][][]byte, shards)
	wants := make([][]string, shards)
	for k := range batches {
		batches[k] = batch(20 + k)
		wants[k] = serialTrace(s, batches[k])
	}

	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			docs := batches[k]
			var got []string
			emitted, err := eng.ProcessContext(context.Background(), len(docs),
				func(i engine.DocID) ([]byte, error) { return docs[i], nil },
				func(i engine.DocID, ev *spanner.Evaluation, e error) bool {
					ev.Enumerate(func(m *spanner.Match) bool {
						got = append(got, fmt.Sprintf("%d:%s", i, m.Key()))
						return true
					})
					return true
				})
			if err != nil || emitted != len(docs) {
				t.Errorf("shard %d: emitted %d of %d, err %v", k, emitted, len(docs), err)
				return
			}
			if fmt.Sprint(got) != fmt.Sprint(wants[k]) {
				t.Errorf("shard %d: concurrent batch diverges from serial", k)
			}
		}(k)
	}
	wg.Wait()
}

// TestOneItemBatchRunsInline pins the one-item rule: a batch of exactly
// one document (or index) has nothing to overlap, so ProcessContext, Map
// and MapContext run it on the calling goroutine and start no worker.
func TestOneItemBatchRunsInline(t *testing.T) {
	forceProcs(t, 4)
	s := spanner.MustCompile(`!x{a+}`)
	eng := engine.New(s, engine.Workers(4))
	batches := map[string]func(emit func()){
		"ProcessContext": func(emit func()) {
			_, _ = eng.ProcessContext(context.Background(), 1,
				func(engine.DocID) ([]byte, error) { return []byte("aa"), nil },
				func(engine.DocID, *spanner.Evaluation, error) bool { emit(); return true })
		},
		"Map": func(emit func()) {
			engine.Map(4, 1, func(i int) int { return i }, func(int, int) bool { emit(); return true })
		},
		"MapContext": func(emit func()) {
			_ = engine.MapContext(context.Background(), 4, 1, func(i int) int { return i }, func(int, int) bool { emit(); return true })
		},
	}
	for name, run := range batches {
		// Goroutines left over from earlier tests may exit between the two
		// readings; a started worker would show on every attempt.
		var before, during int
		for attempt := 0; attempt < 20; attempt++ {
			emits := 0
			before = runtime.NumGoroutine()
			run(func() { emits++; during = runtime.NumGoroutine() })
			if emits != 1 {
				t.Fatalf("%s: emit ran %d times, want 1", name, emits)
			}
			if during == before {
				break
			}
		}
		if during != before {
			t.Fatalf("%s: %d goroutines inside emit, %d before the call; a one-item batch must start none", name, during, before)
		}
	}
}

// TestMapContextCancellation cancels a MapContext batch mid-flight: it
// must return ctx.Err(), never call emit after the cancellation, never
// start fn for an index still queued, and leak no goroutines.
func TestMapContextCancellation(t *testing.T) {
	forceProcs(t, 4)
	base := runtime.NumGoroutine()
	const n, workers, cancelAt = 200, 4, 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var started [n]atomic.Bool
	emits := 0
	err := engine.MapContext(ctx, workers, n,
		func(i int) int {
			started[i].Store(true)
			runtime.Gosched()
			return i * i
		},
		func(i, v int) bool {
			if ctx.Err() != nil {
				t.Errorf("emit(%d) ran after the cancellation", i)
			}
			if i != emits || v != i*i {
				t.Errorf("emit (%d, %d), want (%d, %d)", i, v, emits, emits*emits)
			}
			emits++
			if i == cancelAt {
				cancel()
			}
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if emits != cancelAt+1 {
		t.Fatalf("emit ran %d times, want %d", emits, cancelAt+1)
	}
	settleGoroutines(t, base)
	// While emit(cancelAt) runs, the 2×workers tickets are held by indexes
	// cancelAt and above, so no index from cancelAt+2×workers on has been
	// dequeued; every one dequeued later sees the cancellation.
	queued, ran := 0, 0
	for i := range started {
		if !started[i].Load() {
			continue
		}
		ran++
		if i >= cancelAt+2*workers {
			queued++
		}
	}
	if queued > 0 {
		t.Fatalf("fn started for %d indexes still queued at the cancellation", queued)
	}
	if ran < cancelAt+1 || ran > cancelAt+2*workers {
		t.Fatalf("fn ran for %d of %d indexes, want between %d and %d", ran, n, cancelAt+1, cancelAt+2*workers)
	}
}
