package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"silenttracker/internal/campaign"
	"silenttracker/st"
)

// The boundary timers of the traced run. Each keeps its samples in memory;
// the run reads them once, after the traced phase has ended.

// samples is a concurrency-safe set of durations.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.d = nil
	s.mu.Unlock()
}

func (s *samples) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.d)
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// pct returns the nearest-rank p-th percentile (0 < p ≤ 100) in
// milliseconds, 0 for an empty set.
func (s *samples) pct(p float64) float64 { return percentileMS(s.snapshot(), p) }

func (s *samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s.snapshot() {
		t += d
	}
	return t
}

// percentileMS is the nearest-rank percentile of ds in milliseconds.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	ds = slices.Clone(ds)
	slices.Sort(ds)
	rank := int(p/100*float64(len(ds))+0.999999999) - 1
	rank = max(0, min(rank, len(ds)-1))
	return ms(ds[rank])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedStore is a result store handed to a client through st.WithStore
// around the same campaign store stack the built-in options assemble. It
// times every Get and Put, and pairs each unit's missing Get with its Put:
// the engine computes the unit's trial between the two, so the pair
// brackets the unit's compute time as the store sees it.
type timedStore struct {
	inner    campaign.Store
	get, put samples
	hits     atomic.Int64
	compute  samples

	mu     sync.Mutex
	missAt map[string]time.Time
}

func newTimedStore(inner campaign.Store) *timedStore {
	return &timedStore{inner: inner, missAt: make(map[string]time.Time)}
}

// reset forgets everything timed so far.
func (s *timedStore) reset() {
	s.get.reset()
	s.put.reset()
	s.compute.reset()
	s.hits.Store(0)
	s.mu.Lock()
	clear(s.missAt)
	s.mu.Unlock()
}

func (s *timedStore) Get(hash string) (st.Metrics, bool) {
	t0 := time.Now()
	m, ok := s.inner.Get(hash)
	t1 := time.Now()
	s.get.add(t1.Sub(t0))
	if ok {
		s.hits.Add(1)
		return st.Metrics(m), true
	}
	s.mu.Lock()
	s.missAt[hash] = t1
	s.mu.Unlock()
	return nil, false
}

func (s *timedStore) Put(hash string, m st.Metrics) error {
	t0 := time.Now()
	s.mu.Lock()
	at, ok := s.missAt[hash]
	delete(s.missAt, hash)
	s.mu.Unlock()
	if ok {
		s.compute.add(t0.Sub(at))
	}
	err := s.inner.Put(hash, campaign.Metrics(m))
	s.put.add(time.Since(t0))
	return err
}

func (s *timedStore) Stats() []st.TierStats {
	var out []st.TierStats
	for _, t := range s.inner.Stats() {
		out = append(out, st.TierStats{Tier: t.Tier, Hits: t.Hits, Misses: t.Misses,
			Corrupt: t.Corrupt, Evicted: t.Evicted, Errors: t.Errors,
			Retries: t.Retries, BreakerOpens: t.BreakerOpens, Shorted: t.Shorted})
	}
	return out
}

func (s *timedStore) Close() error { return s.inner.Close() }

// routeTimer is middleware around the daemon's ServeHTTP that times the
// routes a job client and a worker's remote store use.
type routeTimer struct {
	next                 http.Handler
	submit, result, wait samples
	storeGet, storePut   samples
	rejected             atomic.Int64
	mu                   sync.Mutex
	submitted            map[string]time.Time // job id → submit start
}

func newRouteTimer(next http.Handler) *routeTimer {
	return &routeTimer{next: next, submitted: make(map[string]time.Time)}
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	path := r.URL.Path
	switch {
	case r.Method == http.MethodPost && path == "/jobs":
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		rt.next.ServeHTTP(sw, r)
		rt.submit.add(time.Since(t0))
		if sw.code == http.StatusTooManyRequests {
			rt.rejected.Add(1)
		}
		if id, ok := strings.CutPrefix(sw.Header().Get("Location"), "/jobs/"); ok {
			rt.mu.Lock()
			rt.submitted[id] = t0
			rt.mu.Unlock()
		}
	case r.Method == http.MethodGet && strings.HasPrefix(path, "/jobs/") && strings.HasSuffix(path, "/events"):
		id := strings.TrimSuffix(strings.TrimPrefix(path, "/jobs/"), "/events")
		fw := &firstWriter{ResponseWriter: w, first: func(at time.Time) {
			rt.mu.Lock()
			sub, ok := rt.submitted[id]
			rt.mu.Unlock()
			if ok {
				rt.wait.add(at.Sub(sub))
			}
		}}
		rt.next.ServeHTTP(fw, r)
	case r.Method == http.MethodGet && strings.HasPrefix(path, "/jobs/") && strings.HasSuffix(path, "/result"):
		rt.next.ServeHTTP(w, r)
		rt.result.add(time.Since(t0))
	case strings.HasPrefix(path, "/store/units/") && r.Method == http.MethodGet:
		rt.next.ServeHTTP(w, r)
		rt.storeGet.add(time.Since(t0))
	case strings.HasPrefix(path, "/store/units/") && r.Method == http.MethodPut:
		rt.next.ServeHTTP(w, r)
		rt.storePut.add(time.Since(t0))
	default:
		rt.next.ServeHTTP(w, r)
	}
}

// statusWriter records the response status.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// firstWriter reports when the first body bytes are written: for the SSE
// route, the first event frame.
type firstWriter struct {
	http.ResponseWriter
	first func(time.Time)
	once  sync.Once
}

func (w *firstWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { w.first(time.Now()) })
	return w.ResponseWriter.Write(p)
}

func (w *firstWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// leaseSamples collects the lease-protocol traffic of every worker.
type leaseSamples struct {
	lease, complete, compute samples
	empty, heartbeats        atomic.Int64
}

// leaseTimer is the http.RoundTripper one worker's lease protocol runs
// over. A worker's loop is sequential — lease, compute, report — so the
// time from a granted lease to the next completion is that worker's
// time on the lease.
type leaseTimer struct {
	base    http.RoundTripper
	sink    *leaseSamples
	mu      sync.Mutex
	granted time.Time
}

// maxGrantBytes bounds the lease replies the timer buffers to inspect.
const maxGrantBytes = 1 << 20

func (lt *leaseTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	if req.URL.Path == "/dist/complete" {
		lt.mu.Lock()
		if !lt.granted.IsZero() {
			lt.sink.compute.add(t0.Sub(lt.granted))
			lt.granted = time.Time{}
		}
		lt.mu.Unlock()
	}
	resp, err := lt.base.RoundTrip(req)
	d := time.Since(t0)
	switch req.URL.Path {
	case "/dist/lease":
		lt.sink.lease.add(d)
		if err != nil {
			return resp, err
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxGrantBytes))
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if rerr != nil {
			return resp, nil // the worker sees the short body and retries
		}
		var grant st.LeaseGrant
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &grant) != nil ||
			grant.Run == "" || len(grant.Units) == 0 {
			lt.sink.empty.Add(1)
			return resp, nil
		}
		lt.mu.Lock()
		lt.granted = time.Now()
		lt.mu.Unlock()
	case "/dist/complete":
		lt.sink.complete.add(d)
	case "/dist/heartbeat":
		lt.sink.heartbeats.Add(1)
	}
	return resp, err
}
