package storehttp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"silenttracker/internal/campaign"
	"silenttracker/internal/campaign/storehttp"
	"silenttracker/internal/obs"
)

const hash = "00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef0000"

func newServer(t *testing.T) (*httptest.Server, *campaign.MemStore) {
	t.Helper()
	backing := campaign.NewMemStore(1 << 20)
	srv := httptest.NewServer(storehttp.Handler(backing))
	t.Cleanup(srv.Close)
	return srv, backing
}

// TestClientServerRoundTrip drives the full remote path: HTTPStore
// client against Handler against a real backing store.
func TestClientServerRoundTrip(t *testing.T) {
	srv, _ := newServer(t)
	client := campaign.NewHTTPStore(srv.URL, nil)
	defer client.Close()

	if _, ok := client.Get(hash); ok {
		t.Fatal("cold remote store served a hit")
	}
	want := campaign.Metrics{"lat_ms": {1.5, 2.25}, "ok": {1, 0, 1}}
	if err := client.Put(hash, want); err != nil {
		t.Fatal(err)
	}
	got, ok := client.Get(hash)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %v, %v; want %v", got, ok, want)
	}
	ts := client.Stats()[0]
	if ts.Tier != "remote" || ts.Hits != 1 || ts.Misses != 1 || ts.Errors != 0 {
		t.Errorf("client stats = %+v", ts)
	}
}

func TestMalformedHashRejected(t *testing.T) {
	srv, backing := newServer(t)
	for _, bad := range []string{
		"short",
		strings.Repeat("g", 64),         // not hex
		strings.ToUpper(hash),           // uppercase is not canonical
		"../../" + hash[:58],            // traversal attempt
		hash + "/" + hash,               // extra path segment
		strings.Repeat("0", 63) + "%2e", // encoded suffix
	} {
		resp, err := http.Get(srv.URL + "/units/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
			resp.StatusCode != http.StatusMovedPermanently {
			t.Errorf("GET with hash %q: status %d, want rejection", bad, resp.StatusCode)
		}
	}
	if backing.Len() != 0 {
		t.Error("malformed requests reached the backing store")
	}
}

func TestMalformedEntryRejected(t *testing.T) {
	srv, backing := newServer(t)
	good, err := campaign.EncodeEntry(campaign.Metrics{"v": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		// JSON-era entries, valid ones included: the wire carries only
		// the binary codec now.
		`{"v":[1,`, `null`, `[]`, `"x"`, `{"v":[1]}`,
		"",
		string(good[:len(good)-3]), // truncated value
		string(good) + "\x00",      // trailing byte
		"\x02" + string(good[1:]),  // unknown version
		"\x01\x01v\x01\x01\x00\x00\x00\x00\x00\xf8\x7f", // a NaN value
	} {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/units/"+hash, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if backing.Len() != 0 {
		t.Error("malformed entries were stored")
	}
}

// TestEntryContentType: both directions of the units route carry the
// binary entry codec and say so.
func TestEntryContentType(t *testing.T) {
	backing := campaign.NewMemStore(1 << 20)
	h := storehttp.Handler(backing)
	var putType string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			putType = r.Header.Get("Content-Type")
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	want := campaign.Metrics{"v": {1}}
	if err := campaign.NewHTTPStore(srv.URL, nil).Put(hash, want); err != nil {
		t.Fatal(err)
	}
	if putType != "application/octet-stream" {
		t.Errorf("client PUT content type %q, want application/octet-stream", putType)
	}
	resp, err := http.Get(srv.URL + "/units/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("GET content type %q, want application/octet-stream", ct)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if entry, _ := campaign.EncodeEntry(want); !bytes.Equal(body.Bytes(), entry) {
		t.Errorf("GET body %x, want the encoded entry %x", body.Bytes(), entry)
	}
}

// TestPutRefusesNonFinite: an entry holding NaN or ±Inf is refused by
// every backend's Put — as json.Marshal refused it before the binary
// codec — so such a unit is never cached and the engine counts it
// PutFailed. Signed zero and subnormals are finite and round-trip bit
// for bit.
func TestPutRefusesNonFinite(t *testing.T) {
	disk, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	srv, _ := newServer(t)
	stores := []struct {
		name  string
		store campaign.Store
	}{
		{"mem", campaign.NewMemStore(1 << 20)},
		{"disk", disk},
		{"http", campaign.NewHTTPStore(srv.URL, nil)},
	}
	negZero := math.Copysign(0, -1)
	for i, tc := range []struct {
		name   string
		m      campaign.Metrics
		refuse bool
	}{
		{"NaN", campaign.Metrics{"v": {1, math.NaN()}}, true},
		{"+Inf", campaign.Metrics{"v": {math.Inf(1)}}, true},
		{"-Inf", campaign.Metrics{"a": {1}, "v": {math.Inf(-1)}}, true},
		{"-0", campaign.Metrics{"v": {negZero, 0}}, false},
		{"subnormal", campaign.Metrics{"v": {math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060}}, false},
		{"extremes", campaign.Metrics{"v": {math.MaxFloat64, -math.MaxFloat64}}, false},
	} {
		for j, st := range stores {
			h := fmt.Sprintf("%064x", i*len(stores)+j)
			err := st.store.Put(h, tc.m)
			got, ok := st.store.Get(h)
			if tc.refuse {
				if err == nil || ok {
					t.Errorf("%s/%s: Put err = %v, Get ok = %v; want refused and absent", tc.name, st.name, err, ok)
				}
				continue
			}
			if err != nil || !ok {
				t.Fatalf("%s/%s: Put err = %v, Get ok = %v", tc.name, st.name, err, ok)
			}
			for i, v := range tc.m["v"] {
				if math.Float64bits(got["v"][i]) != math.Float64bits(v) {
					t.Errorf("%s/%s: value %d read back %v (bits %x), want bits %x",
						tc.name, st.name, i, got["v"][i], math.Float64bits(got["v"][i]), math.Float64bits(v))
				}
			}
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newServer(t)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/units/"+hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, PUT" {
		t.Errorf("Allow = %q, want \"GET, PUT\"", allow)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, backing := newServer(t)
	entry, err := campaign.EncodeEntry(campaign.Metrics{"v": {1}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/units/"+hash, bytes.NewReader(entry))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if _, ok := backing.Get(hash); !ok {
		t.Fatal("PUT entry did not reach the backing store")
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ts []campaign.TierStats
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Tier != "mem" || ts[0].Hits != 1 {
		t.Errorf("/stats = %+v, want the backing mem tier with our Get counted", ts)
	}
}

// TestEngineOverRemoteStore is the distributed-worker picture in
// miniature: two engine runs sharing only the remote store must not
// recompute, and must render byte-identical output.
func TestEngineOverRemoteStore(t *testing.T) {
	srv, _ := newServer(t)

	spec := &campaign.Spec{
		Name:   "remote-smoke",
		Axes:   []campaign.Axis{{Name: "a", Values: []string{"1", "2"}}},
		Trials: 3,
		Seed:   42,
		Epoch:  "v1",
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			m := campaign.NewMetrics()
			m.Add("v", float64(seed)+float64(cell.Int("a")))
			return m
		},
	}

	run := func() ([]campaign.CellResult, campaign.RunStats) {
		store := campaign.NewHTTPStore(srv.URL, nil)
		defer store.Close()
		eng := campaign.Engine{Store: store, Workers: 2}
		return eng.Run(spec)
	}
	cold, cs := run()
	if cs.Computed != spec.Units() {
		t.Fatalf("cold run: %v", cs)
	}
	warm, ws := run()
	if ws.Computed != 0 || ws.Cached != spec.Units() {
		t.Fatalf("warm run against shared remote: %v", ws)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("remote-cached run folded different cells")
	}
	if len(ws.Tiers) != 1 || ws.Tiers[0].Tier != "remote" || ws.Tiers[0].Hits != int64(spec.Units()) {
		t.Errorf("warm tiers = %+v", ws.Tiers)
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %s, want 200", resp.Status)
	}
	var h storehttp.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want \"ok\"", h.Status)
	}
	if len(h.Tiers) != 1 || h.Tiers[0].Tier != "mem" {
		t.Errorf("health tiers = %+v, want the backing mem tier", h.Tiers)
	}
	// Liveness is GET-only.
	post, err := http.Post(srv.URL+"/healthz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %s, want 405", post.Status)
	}
}

// TestHealthzDegraded: a backing store whose breaker has tripped
// answers 503 "degraded" with the tier counters in the body, and
// recovers to 200 when the breaker closes — how a load balancer tells
// "route elsewhere" from "dead".
func TestHealthzDegraded(t *testing.T) {
	flaky := campaign.NewFaultStore(campaign.NewMemStore(1<<20), 1,
		campaign.FaultProfile{GetErr: 1})
	br := campaign.NewBreakerStore(flaky, campaign.BreakerPolicy{Threshold: 2, CooldownOps: 2})
	srv := httptest.NewServer(storehttp.Handler(br))
	defer srv.Close()

	get := func() (int, storehttp.Health) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h storehttp.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := get(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("fresh server: %d %q, want 200 ok", code, h.Status)
	}
	// Trip the breaker through the store surface.
	br.Get(hash)
	br.Get(hash)
	code, h := get()
	if code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("tripped server: %d %q, want 503 degraded", code, h.Status)
	}
	if len(h.Tiers) == 0 || h.Tiers[0].Errors == 0 {
		t.Errorf("degraded body carries no tier error counters: %+v", h.Tiers)
	}
}

// TestMetricsEndpoint: with a registry the handler serves Prometheus
// text on /metrics and tallies its own per-route request metrics.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(storehttp.Handler(campaign.NewMemStore(1<<20), storehttp.WithRegistry(reg)))
	defer srv.Close()

	// Drive one units miss (404), one malformed hash (400), and one
	// stats hit (200) so distinct status classes move on one route.
	for _, path := range []string{"/units/" + hash, "/units/not-a-hash", "/stats"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %s, want 200", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"# TYPE st_http_requests_total counter",
		// The status-class label keeps a hit, a miss, and a malformed
		// request in distinct series on the same route.
		`st_http_requests_total{code="4xx",route="units"} 2`,
		`st_http_requests_total{code="2xx",route="units"} 0`,
		`st_http_requests_total{code="2xx",route="stats"} 1`,
		"# TYPE st_http_request_seconds histogram",
		`st_http_request_seconds_bucket{route="units",le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Without a registry the route does not exist.
	bare := httptest.NewServer(storehttp.Handler(campaign.NewMemStore(1 << 20)))
	defer bare.Close()
	r404, err := http.Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("bare /metrics = %s, want 404", r404.Status)
	}
}

// TestServerSideFaultMode wraps the backing store in a FaultStore and
// checks the protocol mapping: injected retryable failures surface as
// 503 (which HTTPStore classifies as retryable), injected corruption
// degrades to a 404 miss, and /healthz answers throughout — liveness
// is independent of store health.
func TestServerSideFaultMode(t *testing.T) {
	backing := campaign.NewMemStore(1 << 20)
	if err := backing.Put(hash, campaign.Metrics{"v": []float64{1}}); err != nil {
		t.Fatal(err)
	}

	t.Run("injected error becomes 503", func(t *testing.T) {
		flaky := campaign.NewFaultStore(backing, 1, campaign.FaultProfile{GetErr: 1})
		srv := httptest.NewServer(storehttp.Handler(flaky))
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/units/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET during injected outage = %s, want 503", resp.Status)
		}
		// The client classifies that 503 as retryable — the end-to-end
		// contract a client-side RetryStore depends on.
		client := campaign.NewHTTPStore(srv.URL, nil)
		if _, _, err := client.GetE(hash); !campaign.Retryable(err) {
			t.Errorf("client err = %v, want retryable", err)
		}
		health, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		health.Body.Close()
		if health.StatusCode != http.StatusOK {
			t.Errorf("/healthz during outage = %s, want 200", health.Status)
		}
	})

	t.Run("injected corruption becomes 404", func(t *testing.T) {
		corrupt := campaign.NewFaultStore(backing, 1, campaign.FaultProfile{Corrupt: 1})
		srv := httptest.NewServer(storehttp.Handler(corrupt))
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/units/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET of corrupt entry = %s, want 404 miss", resp.Status)
		}
		client := campaign.NewHTTPStore(srv.URL, nil)
		if _, ok, err := client.GetE(hash); ok || err != nil {
			t.Errorf("client sees (%v, %v), want plain miss", ok, err)
		}
	})
}
