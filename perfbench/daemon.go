package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// clients is the closed loop's width: one client per core of a 2-core
// machine, each on its own keep-alive connection.
const clients = 2

// daemon is one running spannerd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once cmd.Wait returns
	err    error         // cmd.Wait's result, valid after exited
	client *http.Client
}

// startDaemon execs spannerd with default flags on a free loopback port
// and returns once /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStart(bin)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{
		cmd:    exec.Command(bin, "-addr", addr),
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	d.cmd.Stderr = os.Stderr
	// Should this process die without stopping the daemon, the kernel
	// kills it too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting spannerd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("spannerd exited before it was ready: %v", d.err)
		default:
		}
		if resp, err := probe.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			probe.CloseIdleConnections()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, errors.New("spannerd not ready after 30s")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop shuts the daemon down gracefully, waits for it to exit, and
// returns its peak resident set size in MiB.
func (d *daemon) stop() float64 {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// digest identifies a response body.
type digest struct {
	sum uint64
	len int64
}

var hashSeed = maphash.MakeSeed()

// reply is one finished HTTP exchange.
type reply struct {
	status  int
	body    []byte // kept only when asked for
	digest  digest
	ttfb    time.Duration
	latency time.Duration
}

// post sends body to path and reads the whole response, hashing it; keep
// also retains the bytes.
func (d *daemon) post(path string, body []byte, keep bool, buf []byte) (reply, error) {
	var r reply
	start := time.Now()
	tr := &httptrace.ClientTrace{GotFirstResponseByte: func() { r.ttfb = time.Since(start) }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), tr),
		http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var dst io.Writer = &h
	var kept bytes.Buffer
	if keep {
		dst = io.MultiWriter(&h, &kept)
	}
	n, err := io.CopyBuffer(dst, resp.Body, buf)
	r.latency = time.Since(start)
	r.status = resp.StatusCode
	r.digest = digest{sum: h.Sum64(), len: n}
	r.body = kept.Bytes()
	if err != nil {
		return r, fmt.Errorf("reading %s response: %w", path, err)
	}
	return r, nil
}

// setup launches a daemon and brings it to serving state: exec to ready,
// corpus registration, and one warm-up request per distinct spec. It
// returns the time that took and how many warm-up responses were wrong.
// With verify it checks each warm-up body against the library's answer
// and records a correct one as the spec's golden; a spec left without a
// golden fails every later request. Otherwise it checks the bodies
// against the goldens.
func setup(w *workload, bin string, verify bool) (d *daemon, took time.Duration, wrong int64, err error) {
	start := time.Now()
	if d, err = startDaemon(bin); err != nil {
		return nil, 0, 0, err
	}
	if w.corpus {
		r, err := d.post("/v1/corpus/"+corpusName, w.corpusBody(), false, nil)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("HTTP %d", r.status)
		}
		if err != nil {
			d.stop()
			return nil, 0, 0, fmt.Errorf("corpus registration: %w", err)
		}
	}
	replies := make([]reply, len(w.specs))
	buf := make([]byte, 64<<10)
	for i, s := range w.specs {
		if replies[i], err = d.post(s.path, s.body, verify, buf); err != nil {
			d.stop()
			return nil, 0, 0, err
		}
	}
	took = time.Since(start)
	for i, s := range w.specs {
		r := replies[i]
		var bad error
		switch {
		case r.status != http.StatusOK:
			bad = fmt.Errorf("HTTP %d", r.status)
		case verify:
			if bad = s.verify(r.body); bad == nil {
				s.golden = r.digest
			}
		case r.digest != s.golden:
			bad = errors.New("body differs from the verified golden")
		}
		if bad != nil {
			wrong++
			fmt.Fprintf(os.Stderr, "perfbench: warm-up %s %s: %v\n", s.endpoint, s.query, bad)
		}
	}
	return d, took, wrong, nil
}
