package campaign

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// connCountingServer wraps an httptest server whose ConnState hook
// counts accepted TCP connections — the observable for connection
// reuse: N sequential requests over one kept-alive connection accept
// exactly once.
func connCountingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// httpStoreClient builds an HTTPStore with its own transport so the
// test's connection pool is isolated from the process-wide default.
func httpStoreClient(t *testing.T, base string) *HTTPStore {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return NewHTTPStore(base, &http.Client{Transport: tr})
}

// TestHTTPStoreErrorPathsReuseConnection is the regression test for
// the drain-on-error audit: every reply path of GetE and Put — miss,
// 5xx, non-OK, undecodable entry, success — must leave the response
// body drained so the transport reuses one connection across a
// sustained sequence of requests. Before the bounded-drain fix this
// held only by draining without bound, which the oversize test below
// rejects; this test pins that the bound did not cost reuse on the
// normal (small-body) paths.
func TestHTTPStoreErrorPathsReuseConnection(t *testing.T) {
	hash := "deadbeef"
	srv, conns := connCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("mode") {
		case "", "miss":
			http.Error(w, "no such unit", http.StatusNotFound)
		case "fail":
			http.Error(w, "backend exploded", http.StatusInternalServerError)
		case "reject":
			http.Error(w, "go away", http.StatusForbidden)
		case "garbage":
			w.Write([]byte("this is not an entry"))
		case "ok":
			if r.Method == http.MethodPut {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			buf, _ := EncodeEntry(Metrics{"v": {1}})
			w.Write(buf)
		}
	}))
	store := httpStoreClient(t, srv.URL)

	// Drive every reply shape, twice, sequentially. The mode query
	// rides on the hash so the one store URL scheme covers them all.
	for i := 0; i < 2; i++ {
		for _, mode := range []string{"miss", "fail", "reject", "garbage", "ok"} {
			store.GetE(hash + "?mode=" + mode)
		}
		store.Put(hash+"?mode=fail", Metrics{"v": {1}})
		store.Put(hash+"?mode=ok", Metrics{"v": {1}})
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("sequential small-body requests used %d connections, want 1 (body not drained on some path)", got)
	}
}

// TestHTTPStoreOversizeBodyNotDrained pins the bound: when a server
// streams a huge error body, the client must close the connection
// after at most maxDrainBytes instead of reading it all — an
// unbounded drain here would stall a worker slot for the server's
// whole stream. The costs are observable from both ends: the server
// sees its write cut off early, and the next request opens a fresh
// connection (the truncated one is not reusable).
func TestHTTPStoreOversizeBodyNotDrained(t *testing.T) {
	const bodySize = 64 << 20 // far past maxDrainBytes
	var served atomic.Int64
	srv, conns := connCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("mode") == "ok" {
			http.Error(w, "no such unit", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		f, _ := w.(http.Flusher)
		chunk := make([]byte, 64<<10)
		for served.Load() < bodySize {
			n, err := w.Write(chunk)
			served.Add(int64(n))
			if err != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
	}))
	store := httpStoreClient(t, srv.URL)

	if _, ok, err := store.GetE("deadbeef"); ok || err == nil {
		t.Fatalf("giant 500 reply: got hit=%v err=%v, want miss with error", ok, err)
	}
	// The client stopped reading near the drain bound, not at the
	// server's full stream. Allow generous slack for transport
	// buffering on both sides.
	if got := served.Load(); got > maxDrainBytes+(8<<20) {
		t.Errorf("client drained %d bytes of a misbehaving reply, want ≈%d", got, maxDrainBytes)
	}
	// The truncated connection is gone; the next request dials anew.
	if _, _, err := store.GetE("deadbeef?mode=ok"); err != nil {
		t.Fatalf("follow-up get: %v", err)
	}
	if got := conns.Load(); got < 2 {
		t.Errorf("connection count = %d, want ≥ 2 (truncated connection must not be reused)", got)
	}
}
