//go:build ignore

// loadsmoke drives a running spannerd with a small mixed workload
// (enumerate + count, cold compile then cache hits) and prints a
// latency/QPS summary. It is run by scripts/loadsmoke.sh, which builds
// and supervises the daemon; it can also be pointed at a long-running
// instance by hand:
//
//	go run scripts/loadsmoke.go -addr http://127.0.0.1:8080 -n 500 -c 16
//
// The tool exits non-zero when any request fails; the wrapping script
// downgrades that to a warning (CI runners are noisy — the smoke exists to
// make serving regressions visible, not to gate the build).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8080", "spannerd base URL")
		n          = flag.Int("n", 300, "total requests")
		c          = flag.Int("c", 8, "concurrent clients")
		docKB      = flag.Int("doc-kb", 16, "approximate document size per request, KiB")
		corpusDocs = flag.Int("corpus-docs", 64, "documents in the corpus phase (0 disables it)")
	)
	flag.Parse()

	if err := waitReady(*addr, 5*time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "loadsmoke: daemon not ready: %v\n", err)
		os.Exit(1)
	}

	doc := syntheticDoc(*docKB << 10)
	enumBody := mustBody(map[string]any{
		"query": `/.*!name{[A-Z][a-z]+} <!email{[a-z0-9]+@[a-z0-9.]+}>.*/`,
		"docs":  []string{doc},
		"limit": 50,
	})
	countBody := mustBody(map[string]any{
		"query": `/.*!name{[A-Z][a-z]+} <!email{[a-z0-9]+@[a-z0-9.]+}>.*/`,
		"docs":  []string{doc, doc},
	})

	var (
		failed  atomic.Int64
		mu      sync.Mutex
		lats    []time.Duration
		jobs    = make(chan int, *n)
		wg      sync.WaitGroup
		client  = &http.Client{Timeout: 30 * time.Second}
		started = time.Now()
	)
	for i := 0; i < *n; i++ {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				path, body := "/v1/enumerate", enumBody
				if i%3 == 2 {
					path, body = "/v1/count", countBody
				}
				t0 := time.Now()
				resp, err := client.Post(*addr+path, "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				if !drain(resp) || resp.StatusCode != http.StatusOK {
					failed.Add(1)
					continue
				}
				d := time.Since(t0)
				mu.Lock()
				lats = append(lats, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(started)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	fmt.Printf("loadsmoke: %d requests (%d failed), concurrency %d, doc ~%d KiB, wall %.2fs, %.1f req/s\n",
		*n, failed.Load(), *c, *docKB, wall.Seconds(), float64(len(lats))/wall.Seconds())
	fmt.Printf("loadsmoke: latency p50 %s  p90 %s  p99 %s  max %s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	printCacheVars(client, *addr)

	corpusFailed := int64(0)
	if *corpusDocs > 0 {
		corpusFailed = corpusPhase(client, *addr, *corpusDocs, *n/3, *c)
	}

	if failed.Load()+corpusFailed > 0 {
		os.Exit(1)
	}
}

// corpusPhase registers a corpus and drives mixed enumerate/count traffic
// against it, then prints the corpus gauges from /debug/vars. Returns the
// number of failed requests, a failed registration counting as one.
func corpusPhase(client *http.Client, addr string, docs, n, c int) int64 {
	corpus := make([]string, docs)
	for i := range corpus {
		corpus[i] = syntheticDoc(4 << 10)
	}
	reg := mustBody(map[string]any{"docs": corpus})
	resp, err := client.Post(addr+"/v1/corpus/smoke", "application/json", bytes.NewReader(reg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadsmoke: corpus register: %v\n", err)
		return 1
	}
	if !drain(resp) {
		fmt.Fprintf(os.Stderr, "loadsmoke: corpus register: response truncated\n")
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "loadsmoke: corpus register: status %d\n", resp.StatusCode)
		return 1
	}

	enumBody := mustBody(map[string]any{
		"query": `/.*!name{[A-Z][a-z]+} <!email{[a-z0-9]+@[a-z0-9.]+}>.*/`,
		"limit": 20,
	})
	countBody := mustBody(map[string]any{
		"query": `/.*!name{[A-Z][a-z]+} <!email{[a-z0-9]+@[a-z0-9.]+}>.*/`,
	})

	var (
		failed  atomic.Int64
		mu      sync.Mutex
		lats    []time.Duration
		jobs    = make(chan int, n)
		wg      sync.WaitGroup
		started = time.Now()
	)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				path, body := "/v1/enumerate?corpus=smoke", enumBody
				if i%3 == 2 {
					path, body = "/v1/count?corpus=smoke", countBody
				}
				t0 := time.Now()
				resp, err := client.Post(addr+path, "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				if !drain(resp) || resp.StatusCode != http.StatusOK {
					failed.Add(1)
					continue
				}
				d := time.Since(t0)
				mu.Lock()
				lats = append(lats, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(started)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	fmt.Printf("loadsmoke[corpus]: %d requests (%d failed) over %d docs, wall %.2fs, %.1f req/s\n",
		n, failed.Load(), docs, wall.Seconds(), float64(len(lats))/wall.Seconds())
	fmt.Printf("loadsmoke[corpus]: latency p50 %s  p90 %s  p99 %s  max %s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	printCorpusVars(client, addr)
	return failed.Load()
}

// printCorpusVars surfaces the corpus gauges after the corpus phase: a
// healthy smoke shows the corpus serving matches.
func printCorpusVars(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/debug/vars")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var vars struct {
		Corpora []struct {
			Name          string `json:"name"`
			Generation    uint64 `json:"generation"`
			Docs          int    `json:"docs"`
			Bytes         int64  `json:"bytes"`
			MatchesServed int64  `json:"matches_served"`
		} `json:"spannerd_corpora"`
	}
	if json.NewDecoder(resp.Body).Decode(&vars) != nil {
		return
	}
	for _, c := range vars.Corpora {
		fmt.Printf("loadsmoke[corpus]: %s gen=%d docs=%d bytes=%d matches_served=%d\n",
			c.Name, c.Generation, c.Docs, c.Bytes, c.MatchesServed)
	}
}

// drain consumes and closes a response body, reporting whether the full
// body arrived. A failed drain means the response was cut off mid-stream
// — that must count as a failed request, not a served one; silently
// discarding the copy error here used to let truncated responses pass as
// successes (and pollute the latency sample).
func drain(resp *http.Response) bool {
	_, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil
}

// waitReady polls /healthz until the daemon answers.
func waitReady(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				return fmt.Errorf("healthz status %d", resp.StatusCode)
			}
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// syntheticDoc builds a contacts-style document of roughly n bytes.
func syntheticDoc(n int) string {
	names := []string{"Ann", "Bob", "Cleo", "Dora", "Egon", "Faye"}
	hosts := []string{"ex.org", "mail.test", "corp.example"}
	var b strings.Builder
	for i := 0; b.Len() < n; i++ {
		name := names[i%len(names)]
		fmt.Fprintf(&b, "%s <%s%d@%s>, note %d; ", name, strings.ToLower(name), i, hosts[i%len(hosts)], i)
	}
	return b.String()
}

func mustBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// printCacheVars surfaces the compiled-query cache counters after the run:
// a healthy smoke shows exactly one miss per (query, mode) and hits for
// everything else.
func printCacheVars(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/debug/vars")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var vars struct {
		Cache json.RawMessage `json:"spannerd_cache"`
	}
	if json.NewDecoder(resp.Body).Decode(&vars) == nil && len(vars.Cache) > 0 {
		fmt.Printf("loadsmoke: cache %s\n", vars.Cache)
	}
}
