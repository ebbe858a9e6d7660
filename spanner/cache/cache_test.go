package cache_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spanners/internal/gen"
	"spanners/spanner"
	"spanners/spanner/cache"
)

// countingCompile wraps the real compilation with an invocation counter
// and an optional gate that holds every compilation until released — the
// instrument that makes single-flight observable.
type countingCompile struct {
	calls atomic.Int64
	gate  chan struct{} // non-nil: compilations block here first
}

func (cc *countingCompile) fn(q *spanner.Query, mode spanner.Mode) (*spanner.Spanner, error) {
	cc.calls.Add(1)
	if cc.gate != nil {
		<-cc.gate
	}
	return q.Compile(spanner.WithMode(mode))
}

func TestGetCompilesOnceAndHits(t *testing.T) {
	cc := &countingCompile{}
	c := cache.New(cache.Config{Compile: cc.fn})
	ctx := context.Background()

	s1, err := c.Get(ctx, `/!x{a+}b/`, spanner.ModeStrict)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Get(ctx, `/!x{a+}b/`, spanner.ModeStrict)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("second Get must return the cached spanner")
	}
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// The mode is part of the key: a lazy request compiles separately.
	s3, err := c.Get(ctx, `/!x{a+}b/`, spanner.ModeLazy)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("lazy and strict requests must not share an entry")
	}
	if n := cc.calls.Load(); n != 2 {
		t.Fatalf("compile ran %d times after a mode change, want 2", n)
	}
}

func TestCanonicalKeying(t *testing.T) {
	cc := &countingCompile{}
	c := cache.New(cache.Config{Compile: cc.fn})
	ctx := context.Background()

	// Syntactic variants of one query: whitespace, escaping (/\d/ vs
	// /\\d/), all normalize to the same canonical key.
	variants := []string{
		`union(/!x{\d+}/, /a/)`,
		`union( /!x{\d+}/ , /a/ )`,
		"union(\n/!x{\\\\d+}/,\t/a/)",
	}
	var first *spanner.Spanner
	for i, src := range variants {
		s, err := c.Get(ctx, src, spanner.ModeStrict)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if first == nil {
			first = s
		} else if s != first {
			t.Fatalf("variant %d missed the cache", i)
		}
	}
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times across canonical variants, want 1", n)
	}

	canon, err := cache.Canonicalize(variants[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := spanner.MustParseQuery(variants[0]).String(); canon != want {
		t.Fatalf("Canonicalize = %q, want %q", canon, want)
	}
}

// TestSingleFlightUnderContention pins the thundering-herd contract:
// many concurrent Gets for one (canonically identical) query run exactly
// one compilation, everyone receives the same spanner, and nobody errors.
func TestSingleFlightUnderContention(t *testing.T) {
	cc := &countingCompile{gate: make(chan struct{})}
	c := cache.New(cache.Config{Compile: cc.fn})

	const goroutines = 32
	var (
		wg       sync.WaitGroup
		started  sync.WaitGroup
		spanners [goroutines]*spanner.Spanner
		errs     [goroutines]error
	)
	started.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			started.Done()
			// Half the callers use a syntactic variant; single-flight must
			// still coalesce them through the canonical key.
			src := `/!x{a+}/`
			if g%2 == 1 {
				src = `  /!x{a+}/  `
			}
			spanners[g], errs[g] = c.Get(context.Background(), src, spanner.ModeLazy)
		}(g)
	}
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let the herd pile onto the flight
	close(cc.gate)
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if spanners[g] != spanners[0] {
			t.Fatalf("goroutine %d received a different spanner", g)
		}
	}
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times under contention, want exactly 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, goroutines-1)
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	cc := &countingCompile{}
	c := cache.New(cache.Config{MaxEntries: 3, MaxBytes: -1, Compile: cc.fn})
	ctx := context.Background()

	get := func(src string) {
		t.Helper()
		if _, err := c.Get(ctx, src, spanner.ModeStrict); err != nil {
			t.Fatal(err)
		}
	}
	get(`/a/`)
	get(`/b/`)
	get(`/c/`)
	get(`/a/`) // refresh a: LRU order is now b < c < a
	get(`/d/`) // evicts b

	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 entries", st)
	}
	var got []string
	for _, e := range c.Entries() {
		got = append(got, e.Query)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint([]string{"/a/", "/c/", "/d/"}) {
		t.Fatalf("resident entries %v, want the LRU victim /b/ gone", got)
	}

	// Entries() is MRU-first.
	if e := c.Entries(); e[0].Query != "/d/" {
		t.Fatalf("MRU entry = %q, want /d/", e[0].Query)
	}

	before := cc.calls.Load()
	get(`/b/`) // must recompile: it was evicted
	if n := cc.calls.Load(); n != before+1 {
		t.Fatalf("evicted entry did not recompile (calls %d -> %d)", before, n)
	}
}

func TestByteBoundEviction(t *testing.T) {
	c := cache.New(cache.Config{MaxEntries: -1, MaxBytes: 1}) // absurdly tight
	ctx := context.Background()
	if _, err := c.Get(ctx, `/a/`, spanner.ModeStrict); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, `/b/`, spanner.ModeStrict); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// Every entry exceeds one byte, but the newest always stays: one
	// oversized query must not make the cache refuse everything.
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want exactly the newest entry resident", st)
	}
	if e := c.Entries(); len(e) != 1 || e[0].Query != "/b/" {
		t.Fatalf("resident = %v, want only /b/", e)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	cc := &countingCompile{}
	c := cache.New(cache.Config{Compile: cc.fn})
	ctx := context.Background()

	if _, err := c.Get(ctx, `union(`, spanner.ModeStrict); err == nil {
		t.Fatal("parse error must surface")
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("a parse error must not touch the cache: %+v", st)
	}

	// A query that parses but fails to compile (unbound projection).
	bad := `project[nope](/!x{a}/)`
	if _, err := c.Get(ctx, bad, spanner.ModeStrict); err == nil {
		t.Fatal("compile error must surface")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Errors != 1 {
		t.Fatalf("stats after compile error = %+v, want 0 entries / 1 error", st)
	}
	// Errors are not negative-cached: a retry compiles again.
	before := cc.calls.Load()
	if _, err := c.Get(ctx, bad, spanner.ModeStrict); err == nil {
		t.Fatal("compile error must surface again")
	}
	if n := cc.calls.Load(); n != before+1 {
		t.Fatal("failed compilation must be retried, not negative-cached")
	}
}

func TestJoiningWaiterHonorsContext(t *testing.T) {
	cc := &countingCompile{gate: make(chan struct{})}
	c := cache.New(cache.Config{Compile: cc.fn})

	winner := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), `/a+/`, spanner.ModeStrict)
		winner <- err
	}()
	// Wait until the flight is registered.
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, `/a+/`, spanner.ModeStrict); !errors.Is(err, context.Canceled) {
		t.Fatalf("joining waiter returned %v, want context.Canceled", err)
	}

	close(cc.gate)
	if err := <-winner; err != nil {
		t.Fatalf("winning compilation failed: %v", err)
	}
	// The abandoned waiter must not have poisoned the entry.
	if _, err := c.Get(context.Background(), `/a+/`, spanner.ModeStrict); err != nil {
		t.Fatal(err)
	}
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
}

// TestCompilePanicDoesNotWedgeKey pins the single-flight failure mode a
// daemon cannot afford: a panic inside the compilation must surface as an
// error to the winner and every joined waiter, leave the flight
// deregistered (so the key recovers on the next Get), and cache nothing.
func TestCompilePanicDoesNotWedgeKey(t *testing.T) {
	var calls atomic.Int64
	c := cache.New(cache.Config{Compile: func(q *spanner.Query, mode spanner.Mode) (*spanner.Spanner, error) {
		if calls.Add(1) == 1 {
			panic("injected compile bug")
		}
		return q.Compile(spanner.WithMode(mode))
	}})

	if _, err := c.Get(context.Background(), `/a+/`, spanner.ModeStrict); err == nil ||
		!strings.Contains(err.Error(), "injected compile bug") {
		t.Fatalf("err = %v, want the panic surfaced as an error", err)
	}
	st := c.Stats()
	if st.Entries != 0 || st.InFlight != 0 || st.Errors != 1 {
		t.Fatalf("stats after compile panic = %+v, want no entry, no stuck flight, 1 error", st)
	}

	// The key must recover: the next Get compiles fresh and succeeds
	// promptly (a wedged flight would block it until ctx expired).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Get(ctx, `/a+/`, spanner.ModeStrict); err != nil {
		t.Fatalf("key did not recover after a compile panic: %v", err)
	}
}

// TestSharedLazySpannerConcurrentRequests pins the serving scenario end to
// end: one cached lazy-mode spanner handed to concurrent "requests" must
// produce exactly the serial match sets, with the on-the-fly determinizer
// shared between them (run under -race in CI).
func TestSharedLazySpannerConcurrentRequests(t *testing.T) {
	c := cache.New(cache.Config{})
	src := "/" + gen.Figure1Pattern() + "/"

	// Reference: a private spanner, serially.
	ref := spanner.MustCompile(gen.Figure1Pattern())
	docs := make([][]byte, 16)
	want := make([][]string, len(docs))
	for i := range docs {
		docs[i] = gen.Contacts(25, int64(i))
		ref.Enumerate(docs[i], func(m *spanner.Match) bool {
			want[i] = append(want[i], m.Key())
			return true
		})
		if len(want[i]) == 0 {
			t.Fatalf("doc %d: reference found no matches; test would be vacuous", i)
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s, err := c.Get(context.Background(), src, spanner.ModeLazy)
			if err != nil {
				t.Error(err)
				return
			}
			for i, doc := range docs {
				var got []string
				s.Enumerate(doc, func(m *spanner.Match) bool {
					got = append(got, m.Key())
					return true
				})
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("request %d doc %d: matches diverge from serial reference", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want a single compilation across all requests", st)
	}
	// The shared lazy spanner's discovery progress is visible per entry.
	if e := c.Entries(); len(e) != 1 || e[0].DetStates == 0 {
		t.Fatalf("entries = %+v, want one entry with discovered states", e)
	}
}

func TestPurge(t *testing.T) {
	c := cache.New(cache.Config{})
	ctx := context.Background()
	if _, err := c.Get(ctx, `/a/`, spanner.ModeStrict); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after Purge = %+v", st)
	}
	if _, err := c.Get(ctx, `/a/`, spanner.ModeStrict); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("purged entry must recompile: %+v", st)
	}
}

// TestLazyCostFollowsByteClasses pins the lazy entry estimate to its memo
// rows: each source state is charged one 4-byte entry per slot of the
// table's row stride (the byte classes rounded up to a power of two), not
// a 256-entry row. The two queries differ only in one byte, so their
// automata have the same sizes and their keys the same length, but /!x{a+}b/
// has one byte class more than /!x{a+}a/: 3 classes instead of 2, so a
// 4-entry stride instead of 2.
func TestLazyCostFollowsByteClasses(t *testing.T) {
	ctx := context.Background()
	cost := func(src string) (int64, spanner.Stats) {
		c := cache.New(cache.Config{})
		s, err := c.Get(ctx, src, spanner.ModeLazy)
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats().Bytes, s.Stats()
	}
	two, st2 := cost(`/!x{a+}a/`)
	three, st3 := cost(`/!x{a+}b/`)
	if st2.ByteClasses != 2 || st3.ByteClasses != 3 || st2.EVAStates != st3.EVAStates ||
		st2.EVATransitions != st3.EVATransitions {
		t.Fatalf("queries must differ only in their byte classes: %+v vs %+v", st2, st3)
	}
	if got, want := three-two, int64(st3.EVAStates)*8; got != want {
		t.Fatalf("one more byte class costs %d bytes, want %d (8 per source state: the stride grows from 2 to 4)", got, want)
	}
	fig, st := cost(`/` + gen.Figure1Pattern() + `/`)
	if old := int64(st.EVAStates) * 1024; fig >= old {
		t.Fatalf("Figure 1 lazy entry costs %d bytes, want below the 256-entry rows alone (%d)", fig, old)
	}
}
