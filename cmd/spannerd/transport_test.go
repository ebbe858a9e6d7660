package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// countingListener hands out connections that count their Write calls:
// net/http writes a connection only to send, so each call is one write
// syscall on a loopback socket.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// loopbackServer starts srv on a loopback listener whose connections
// count their writes.
func loopbackServer(tb testing.TB, srv *server) (*httptest.Server, *atomic.Int64) {
	tb.Helper()
	writes := new(atomic.Int64)
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener = countingListener{ts.Listener, writes}
	ts.Start()
	tb.Cleanup(ts.Close)
	return ts, writes
}

// enumerateOver posts body to ts's /v1/enumerate, reads the response to
// its end and returns its length, failing on any status but 200.
func enumerateOver(tb testing.TB, client *http.Client, ts *httptest.Server, body []byte) int64 {
	tb.Helper()
	resp, err := client.Post(ts.URL+"/v1/enumerate", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status %d", resp.StatusCode)
	}
	return n
}

// TestEnumerateWriteSyscalls pins the number of connection writes an
// enumerate response costs. net/http's connection writer turns every
// pushed batch into about three writes, and the response's last batch
// and trailer go out with the terminating chunk, so the nested-enum
// request (about 8.9 MB of rows) takes about a hundred writes and the
// query-churn request (one ~12 KB batch) three: flushing every 256 rows
// would cost the first close to a thousand, and an explicit flush after
// the trailer would cost the second a fourth.
func TestEnumerateWriteSyscalls(t *testing.T) {
	ts, writes := loopbackServer(t, newServer(serverConfig{}))
	client := ts.Client()
	for _, tc := range []struct {
		name      string
		maxWrites int64
	}{
		{"nested/plain", 120},
		{"churn/plain", 3},
	} {
		// A first request compiles the query, warms the pools and opens
		// the connection; the second is the one counted.
		body := wireBodyNamed(t, tc.name)
		enumerateOver(t, client, ts, body)
		writes.Store(0)
		n := enumerateOver(t, client, ts, body)
		got := writes.Load()
		t.Logf("%s: %d connection writes for a %d-byte response", tc.name, got, n)
		if got > tc.maxWrites {
			t.Errorf("%s: %d connection writes, want at most %d", tc.name, got, tc.maxWrites)
		}
	}
}

// BenchmarkEnumerateLoopback is BenchmarkEnumerateNDJSON's nested-enum
// request served over a loopback connection by net/http: the handler, the
// chunked transfer encoding and the socket writes, with the client's
// reads on the same machine. It reports the cost per NDJSON row and the
// connection writes per request.
func BenchmarkEnumerateLoopback(b *testing.B) {
	body := wireBodyNamed(b, "nested/plain")
	ts, writes := loopbackServer(b, newServer(serverConfig{}))
	client := ts.Client()
	enumerateOver(b, client, ts, body)
	const rows = 4 * 20000
	writes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		enumerateOver(b, client, ts, body)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/req")
}
