// Command spanners is a grep-like front end for the constant-delay
// document-spanner engine: it compiles a regex formula (or a whole query
// expression) once and extracts every capture mapping from the given files
// (or stdin).
//
//	spanners '.*!user{[a-z0-9]+}@!host{[a-z0-9.]+}.*' mail.txt
//	spanners -count '.*!ip{\d+\.\d+\.\d+\.\d+}.*' access.log
//	spanners -j 8 PATTERN *.log
//	cat doc | spanners -json '!w{\w+}(.|\n)*'
//	spanners -query 'project[user](union(/.*!user{\w+}@.*/, /.*!user{\w+}:.*/))' mail.txt
//	spanners -timeout 2s -query 'join(/.*!x{a+}.*/, /.*b.*/)' big.log
//
// Each output line is one match. In text mode a match renders as
// tab-separated "var=[start,end) "text"" bindings (byte offsets, half-open);
// with -json each match is one NDJSON object. -count prints only |⟦A⟧d|
// per input, computed without enumerating (Theorem 5.1). FILE arguments
// run through the engine's ordered batch pool, -j N of them at a time (one
// by default); the output is in FILE order whatever N is, and a "-" in the
// list reads stdin whole. Stdin alone (no FILE, or the single FILE "-") is
// consumed incrementally instead (chunk-by-chunk preprocessing), so
// matching starts the moment the pipe closes, and -count over stdin never
// materializes the document at all. -timeout D cancels everything —
// queued files, in-flight preprocessing, enumeration — after D.
//
// Composition is expressed with -query: a single expression over
// /pattern/ literals combining union(…), join(…) and project[…](…), parsed
// into a logical plan, optimized (n-ary union flattening, projection
// pushdown, subexpression deduplication, join ordering), and compiled
// once; -stats prints the plan before and after optimization. A plain
// positional PATTERN takes the direct pipeline instead, so -stats echoes it
// exactly as typed and reports the VA stage.
//
// Exit status follows the grep convention: 0 when at least one input
// matched, 1 when nothing matched, 2 on any error (bad pattern, unreadable
// file, write failure, timeout).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spanners/engine"
	"spanners/internal/jsonrow"
	"spanners/spanner"
)

// Exit codes, grep-style.
const (
	exitMatch   = 0 // at least one input produced a match
	exitNoMatch = 1 // everything evaluated, no input matched
	exitError   = 2 // usage, compile, read, write, or timeout error
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

const usage = `usage: spanners [flags] PATTERN [FILE ...]
       spanners [flags] -query EXPR [FILE ...]

Extracts document spans matching a regex formula with captures !var{...},
or a -query expression combining /pattern/ literals with union(...),
join(...) and project[vars](...). Reads stdin when no files are given.
Flags:
`

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spanners", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	var (
		countOnly = fs.Bool("count", false, "print only the number of matches per input")
		jsonOut   = fs.Bool("json", false, "emit matches as NDJSON objects")
		lazy      = fs.Bool("lazy", false, "determinize on the fly instead of ahead of time")
		stats     = fs.Bool("stats", false, "print automaton statistics (and the query plan) to stderr")
		limit     = fs.Int("limit", 0, "stop after this many matches per input (0 = no limit)")
		jobs      = fs.Int("j", 1, "evaluate FILE arguments concurrently with this many workers")
		queryStr  = fs.String("query", "", "evaluate this query expression instead of a positional PATTERN")
		timeout   = fs.Duration("timeout", 0, "cancel evaluation after this duration (0 = none)")
		noOpt     = fs.Bool("no-optimize", false, "compile the query plan exactly as written (skip the logical optimizer)")
	)
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	opts := []spanner.Option{spanner.WithStrict()}
	if *lazy {
		opts = []spanner.Option{spanner.WithLazy()}
	}
	if *noOpt {
		opts = append(opts, spanner.WithoutOptimization())
	}

	var sp *spanner.Spanner
	var q *spanner.Query
	var files []string
	var err error
	switch {
	case *queryStr != "":
		if q, err = spanner.ParseQuery(*queryStr); err == nil {
			sp, err = q.Compile(opts...)
		}
		files = fs.Args()
	case fs.NArg() < 1:
		fs.Usage()
		return exitError
	default:
		sp, err = spanner.Compile(fs.Arg(0), opts...)
		files = fs.Args()[1:]
	}
	if err != nil {
		fmt.Fprintf(stderr, "spanners: %v\n", err)
		return exitError
	}
	if *stats {
		printStats(stderr, sp, q, *noOpt)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		// The library's Reader entry points check the context between
		// Reads but cannot interrupt a Read that is itself blocked (a
		// stalled pipe); wrap stdin so the deadline wins even then.
		stdin = newDeadlineReader(ctx, stdin)
	}

	r := &renderer{
		jsonOut: *jsonOut,
		prefix:  len(files) > 1,
		out:     bufio.NewWriterSize(stdout, 64<<10),
		spans:   jsonrow.NewSpans(sp.Vars()),
	}

	var matched bool
	if len(files) == 0 || len(files) == 1 && files[0] == "-" {
		matched, err = processStdin(ctx, sp, stdin, *countOnly, *limit, r)
	} else {
		matched, err = runBatch(ctx, sp, files, stdin, max(*jobs, 1), *countOnly, *limit, r)
	}
	if ferr := r.flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintf(stderr, "spanners: %v\n", err)
		return exitError
	}
	if *stats && *lazy {
		fmt.Fprintf(stderr, "det states discovered: %d\n", sp.Stats().DetStates)
	}
	if matched {
		return exitMatch
	}
	return exitNoMatch
}

// processStdin streams stdin through the incremental evaluator: -count
// runs the O(states)-memory counting pass; otherwise preprocessing happens
// as chunks arrive and enumeration starts at EOF.
func processStdin(ctx context.Context, sp *spanner.Spanner, stdin io.Reader, countOnly bool, limit int, r *renderer) (matched bool, err error) {
	if countOnly {
		n, err := sp.CountBigReaderContext(ctx, stdin)
		if err != nil {
			return false, err
		}
		return n.Sign() > 0, r.count("-", n.String())
	}
	emitted := 0
	err = sp.EnumerateReaderContext(ctx, stdin, func(m *spanner.Match) bool {
		matched = true
		if !r.match("-", m) {
			return false
		}
		emitted++
		return limit == 0 || emitted < limit
	})
	if err == nil {
		err = r.err
	}
	return matched, err
}

// batchLoader returns the document loader for a batch of FILE arguments.
// A "-" argument means stdin, read whole: the first "-" consumes the
// stream; any later "-" sees the drained reader, i.e. an empty document.
// The first-"-" index is resolved up front so the assignment stays
// deterministic however the concurrent loads interleave.
func batchLoader(files []string, stdin io.Reader) func(engine.DocID) ([]byte, error) {
	firstDash := -1
	for i, name := range files {
		if name == "-" {
			firstDash = i
			break
		}
	}
	return func(i engine.DocID) ([]byte, error) {
		if files[i] == "-" {
			if int(i) != firstDash {
				return nil, nil
			}
			return io.ReadAll(stdin)
		}
		return os.ReadFile(files[i])
	}
}

// runBatch evaluates a FILE list on an engine pool of jobs workers (one
// file runs on the calling goroutine). Files are read lazily inside the
// workers, so resident memory stays bounded by the in-flight window
// regardless of how many files are listed, and the output — including
// where a read error surfaces — is in FILE order whatever jobs is.
// Cancellation (the -timeout flag) stops queued and in-flight work
// promptly; enumeration checks it every 256 matches.
func runBatch(ctx context.Context, sp *spanner.Spanner, files []string, stdin io.Reader, jobs int, countOnly bool, limit int, r *renderer) (matched bool, err error) {
	if countOnly {
		return runBatchCount(ctx, sp, files, stdin, jobs, r)
	}
	eng := engine.New(sp, engine.Workers(jobs))
	_, ctxErr := eng.ProcessContext(ctx, len(files),
		batchLoader(files, stdin),
		func(i engine.DocID, ev *spanner.Evaluation, e error) bool {
			if e != nil {
				err = e
				return false
			}
			emitted := 0
			ev.Enumerate(func(m *spanner.Match) bool {
				matched = true
				if !r.match(files[i], m) {
					return false
				}
				emitted++
				if emitted%256 == 0 && ctx.Err() != nil {
					err = ctx.Err()
					return false
				}
				return limit == 0 || emitted < limit
			})
			return err == nil && r.flush() == nil
		})
	if err == nil {
		err = ctxErr
	}
	if err == nil {
		err = r.err
	}
	return matched, err
}

// runBatchCount runs the per-file counting pass on an engine.MapContext
// pool: each worker reads a file, counts, and drops the document, so
// memory stays at O(workers) files and the counts print in input order.
func runBatchCount(ctx context.Context, sp *spanner.Spanner, files []string, stdin io.Reader, jobs int, r *renderer) (matched bool, err error) {
	load := batchLoader(files, stdin)
	type result struct {
		val string
		pos bool
		err error
	}
	ctxErr := engine.MapContext(ctx, jobs, len(files),
		func(i int) result {
			doc, e := load(engine.DocID(i))
			if e != nil {
				return result{err: e}
			}
			val, pos, e := countValue(ctx, sp, doc)
			return result{val: val, pos: pos, err: e}
		},
		func(i int, res result) bool {
			if res.err != nil {
				err = res.err
				return false
			}
			e := r.count(files[i], res.val)
			if e == nil {
				e = r.flush()
			}
			if e != nil {
				err = e
				return false
			}
			matched = matched || res.pos
			return true
		})
	if err == nil {
		err = ctxErr
	}
	return matched, err
}

// renderer owns the output formatting shared by the stdin and batch
// paths. Output is buffered and written through to stdout by flush, at
// the end of every input. A false return from match/count-reporting means
// a write failed; the first failure is latched in err.
type renderer struct {
	jsonOut bool
	prefix  bool
	out     *bufio.Writer    // over stdout
	spans   *jsonrow.Spans   // -json: the spans object writer
	row     []byte           // the current line, reused across matches
	doc     jsonrow.DocState // -json: escaping state of the current input
	err     error
}

// flush writes the buffered output through to stdout and ends the current
// input: the next match belongs to a new document. It returns the first
// write error, latched like a failed row write.
func (r *renderer) flush() error {
	r.doc = jsonrow.DocState{}
	if r.err == nil {
		r.err = r.out.Flush()
	}
	return r.err
}

// match renders one match line; it reports whether rendering can continue.
// A -json line is {"file":"NAME","spans":{…}}, the file member present only
// when several inputs are named.
func (r *renderer) match(name string, m *spanner.Match) bool {
	if r.err != nil {
		return false
	}
	if r.jsonOut {
		r.row = append(r.row[:0], '{')
		if r.prefix {
			r.row = append(r.row, `"file":`...)
			r.row = jsonrow.AppendString(r.row, name)
			r.row = append(r.row, ',')
		}
		r.row = append(r.row, `"spans":`...)
		r.row = r.spans.Append(r.row, m, &r.doc)
		r.row = append(r.row, "}\n"...)
		if _, e := r.out.Write(r.row); e != nil {
			r.err = e
			return false
		}
		return true
	}
	r.row = r.row[:0]
	if r.prefix {
		r.row = append(append(r.row, name...), ':')
	}
	start := len(r.row)
	for i, v := range m.Vars() {
		sp, ok := m.SpanAt(i)
		if !ok {
			continue
		}
		if len(r.row) > start {
			r.row = append(r.row, '\t')
		}
		r.row = append(append(r.row, v...), "=["...)
		r.row = strconv.AppendInt(r.row, int64(sp.Start), 10)
		r.row = append(r.row, ',')
		r.row = strconv.AppendInt(r.row, int64(sp.End), 10)
		r.row = append(r.row, ") "...)
		r.row = strconv.AppendQuote(r.row, string(m.Doc()[sp.Start:sp.End]))
	}
	if len(r.row) == start {
		r.row = append(r.row, "{}"...) // the empty mapping: accepted, nothing captured
	}
	r.row = append(r.row, '\n')
	if _, e := r.out.Write(r.row); e != nil {
		r.err = e
		return false
	}
	return true
}

// count renders one per-input count line.
func (r *renderer) count(name, val string) error {
	var e error
	if r.prefix {
		_, e = fmt.Fprintf(r.out, "%s:%s\n", name, val)
	} else {
		_, e = fmt.Fprintln(r.out, val)
	}
	return e
}

// countValue counts one materialized document exactly, in one pass that
// migrates to big-integer arithmetic only on overflow; pos reports whether
// the true count is non-zero. pos comes from the exact total: a count that
// overflowed and then saw every run die is zero, not a match.
func countValue(ctx context.Context, sp *spanner.Spanner, doc []byte) (val string, pos bool, err error) {
	n, err := sp.CountBigContext(ctx, doc)
	if err != nil {
		return "", false, err
	}
	return n.String(), n.Sign() > 0, nil
}

// printStats prints sp's statistics and, for a query compile (q non-nil),
// its plan trees; under -no-optimize (noOpt) the plan compiled is the
// logical one.
func printStats(w io.Writer, sp *spanner.Spanner, q *spanner.Query, noOpt bool) {
	st := sp.Stats()
	fmt.Fprintf(w, "pattern:        %s\n", st.Pattern)
	fmt.Fprintf(w, "variables:      %s\n", strings.Join(st.Vars, ", "))
	fmt.Fprintf(w, "mode:           %s\n", st.Mode)
	fmt.Fprintf(w, "sequentialized: %v\n", st.Sequentialized)
	if q != nil {
		if ex, err := q.Explain(); err == nil {
			if noOpt {
				ex.Optimized = ex.Logical
			}
			fmt.Fprintf(w, "plan (logical):\n%s\n", indent(ex.Logical, "  "))
			fmt.Fprintf(w, "plan (optimized):\n%s\n", indent(ex.Optimized, "  "))
		}
	}
	if st.VAStates > 0 {
		// Query-composed spanners start from eVAs, skipping the VA stage.
		fmt.Fprintf(w, "VA:             %d states, %d transitions\n", st.VAStates, st.VATransitions)
	}
	fmt.Fprintf(w, "eVA:            %d states, %d transitions\n", st.EVAStates, st.EVATransitions)
	if st.Mode == spanner.ModeStrict {
		fmt.Fprintf(w, "det eVA:        %d states, dense table %d bytes (%d byte classes)\n",
			st.DetStates, st.DenseTableBytes, st.ByteClasses)
	}
	prefilter := "off"
	if st.PrefilterEnabled {
		prefilter = "on"
	}
	fmt.Fprintf(w, "prefilter:      %s\n", prefilter)
	fmt.Fprintf(w, "compile time:   %s\n", st.CompileTime)
}

// indent prefixes every line of s.
func indent(s, prefix string) string {
	return prefix + strings.ReplaceAll(s, "\n", "\n"+prefix)
}

// deadlineReader makes a blocking Read interruptible: each underlying Read
// runs on a goroutine and the caller's wait selects on ctx.Done(), so a
// stalled pipe cannot outlive -timeout. When the deadline fires mid-Read,
// the reading goroutine lingers until its Read returns — acceptable here
// because the process exits right after; this is deliberately a CLI
// construct, not a library one.
type deadlineReader struct {
	ctx     context.Context
	r       io.Reader
	res     chan readResult
	buf     []byte
	pending []byte // delivered by a past Read, not yet consumed
	busy    bool   // a goroutine Read is in flight
	err     error  // latched error, returned once pending drains
}

type readResult struct {
	n   int
	err error
}

func newDeadlineReader(ctx context.Context, r io.Reader) *deadlineReader {
	return &deadlineReader{ctx: ctx, r: r, res: make(chan readResult, 1)}
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	if len(d.pending) > 0 {
		n := copy(p, d.pending)
		d.pending = d.pending[n:]
		return n, nil
	}
	if d.err != nil {
		return 0, d.err
	}
	if err := d.ctx.Err(); err != nil {
		return 0, err
	}
	if !d.busy {
		if d.buf == nil {
			d.buf = make([]byte, 64<<10)
		}
		d.busy = true
		go func() {
			n, err := d.r.Read(d.buf)
			d.res <- readResult{n, err}
		}()
	}
	select {
	case res := <-d.res:
		d.busy = false
		if res.err != nil {
			d.err = res.err
		}
		if res.n > 0 {
			d.pending = d.buf[:res.n]
			n := copy(p, d.pending)
			d.pending = d.pending[n:]
			return n, nil
		}
		return 0, res.err
	case <-d.ctx.Done():
		return 0, d.ctx.Err()
	}
}
