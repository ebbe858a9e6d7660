// Command perfbench is the repository's end-to-end benchmark. It builds
// seeded inputs with internal/gen, launches the real spannerd binary with
// default flags, drives it over loopback HTTP with a closed loop of two
// clients on two keep-alive connections, and checks every response
// against answers computed with the spanner library. With --trace 1 it
// instead replays the same inputs in-process through each layer's public
// functions (eva, core, spanner, spanner/cache, engine, corpus, cluster)
// plus one daemon request per distinct request, records spans, and
// derives per-layer metrics from them.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// where failed counts non-200, truncated or wrong responses. Run it
// through run.sh, which builds spannerd and this program first:
//
//	bash perfbench/run.sh --workload contacts-batch --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// setups is how many daemons a run starts. Each is set up and then
// timed for an equal slice of the run, so one run samples several daemon
// lifetimes (heap growth and GC pacing differ between them).
const setups = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed     int64
	seconds  int
	spannerd string // daemon binary
	out      string // directory for span files
}

func main() {
	var (
		name  = flag.String("workload", "", "workload name")
		cfg   config
		trace = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement time")
	flag.StringVar(&cfg.spannerd, "spannerd", "", "spannerd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files")
	flag.Parse()
	if cfg.spannerd == "" || cfg.seconds < 1 {
		fatal(fmt.Errorf("need --spannerd and --seconds >= 1"))
	}
	w, err := newWorkload(*name, cfg.seed)
	if err != nil {
		fatal(err)
	}
	if err := w.expect(); err != nil {
		fatal(fmt.Errorf("computing expected results: %w", err))
	}
	var res result
	if *trace == 1 {
		res, err = runTraced(w, cfg)
	} else {
		res, err = runTimed(w, cfg)
	}
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "%-34s %14.4f (failed %d of %d)\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// sample is one timed request.
type sample struct {
	latency, ttfb time.Duration
	done          time.Duration // completion, relative to the loop start
	ok            bool
	rows, bytes   int64
}

// runTimed measures the end-to-end metrics over setups daemons: each is
// set up (setup_s is the median set-up time), driven by the closed loop
// for its slice of the run, and stopped (server_rss_peak_mb is the median
// peak). Latencies are percentiles over all slices' requests.
func runTimed(w *workload, cfg config) (result, error) {
	slice := time.Duration(cfg.seconds) * time.Second / setups
	var (
		samples      []sample
		elapsed      time.Duration
		setupS, rssM []float64
		wrong        int64
	)
	for i := 0; i < setups; i++ {
		d, took, bad, err := setup(w, cfg.spannerd, i == 0)
		if err != nil {
			return result{}, err
		}
		wrong += bad
		runtime.GC() // start timing on a collected heap
		s, e := closedLoop(w, d, slice)
		rssM = append(rssM, d.stop())
		setupS = append(setupS, took.Seconds())
		samples = append(samples, s...)
		elapsed += e
	}

	// Warm-up responses count as attempted requests too.
	res := result{Attempted: int64(setups * len(w.specs)), Failed: wrong, Metrics: map[string]metric{}}
	var lat, ttfb []float64
	var rows, docBytes float64
	for _, s := range samples {
		res.Attempted++
		if !s.ok {
			res.Failed++
			continue
		}
		lat = append(lat, ms(s.latency))
		ttfb = append(ttfb, ms(s.ttfb))
		rows += float64(s.rows)
		docBytes += float64(s.bytes)
	}
	res.Correct = res.Failed == 0 && len(lat) > 0
	sec := elapsed.Seconds()
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", median(setupS), "s")
	put("latency_p50_ms", quantile(lat, 0.5), "ms")
	put("latency_p90_ms", quantile(lat, 0.9), "ms")
	put("ttfb_p50_ms", quantile(ttfb, 0.5), "ms")
	put("requests_per_s", float64(len(lat))/sec, "1/s")
	put("doc_mb_per_s", docBytes/1e6/sec, "MB/s")
	put("matches_per_s", rows/sec, "1/s")
	put("server_rss_peak_mb", median(rssM), "MiB")
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests in %.2fs over %d daemons, %d clients\n", w.name, cfg.seed, res.Attempted, sec, setups, clients)
	return res, nil
}

// closedLoop runs the workload's request sequence from clients
// goroutines, each sending its next request when the previous one has
// completed, until dur has passed. elapsed runs to the last completion.
func closedLoop(w *workload, d *daemon, dur time.Duration) (samples []sample, elapsed time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			var mine []sample
			for time.Now().Before(deadline) {
				k := w.next(next.Add(1) - 1)
				r, err := d.post(k.spec.path, k.body, false, buf)
				s := sample{latency: r.latency, ttfb: r.ttfb, done: time.Since(start)}
				s.ok = err == nil && r.status == 200 && r.digest == k.spec.golden
				if s.ok {
					s.rows, s.bytes = k.spec.rows, k.spec.docBytes
				} else if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				}
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, s := range samples {
		elapsed = max(elapsed, s.done)
	}
	return samples, elapsed
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
