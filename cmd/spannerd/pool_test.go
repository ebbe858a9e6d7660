package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"testing"
)

// TestWarmEnumerateReusesBuffers pins spannerd's two buffer pools on a
// warm nested-enum request: its ~16 KB body is read into a buffer from
// bodyBufs, and its rows, pushed in batches of writeBatch bytes, into a
// buffer from rowBufs. A request that finds either pool empty grows a
// fresh buffer by doubling, so it makes more allocations than the warm
// one; without putBodyBuf or putRowBuf every request would.
func TestWarmEnumerateReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// A collection would move the pools to their victim caches and a
	// second one would empty them; keep the measurement about reuse alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	body := wireBodyNamed(t, "nested/plain")
	srv := newServer(serverConfig{workers: 1})
	r := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/enumerate", r)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		r.Reset(body)
		req.Body = io.NopCloser(r)
		srv.ServeHTTP(w, req)
	}
	serve()
	if w.rows != 4*20000+1 {
		t.Fatalf("%d lines, want 80000 rows and the trailer", w.rows)
	}
	warm := testing.AllocsPerRun(20, serve)
	for _, pool := range []struct {
		name string
		p    *sync.Pool
	}{
		{"bodyBufs", &bodyBufs},
		{"rowBufs", &rowBufs},
	} {
		cold := testing.AllocsPerRun(20, func() {
			for pool.p.Get() != nil {
			}
			serve()
		})
		t.Logf("%.0f allocations per warm request, %.0f with %s emptied first", warm, cold, pool.name)
		if warm >= cold {
			t.Errorf("a warm request makes %.0f allocations, one with %s emptied first %.0f: the pool is not reused", warm, pool.name, cold)
		}
	}
}
