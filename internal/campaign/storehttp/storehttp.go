// Package storehttp serves a campaign.Store over HTTP — the server
// half of campaign.HTTPStore. Mounting Handler in any HTTP server
// (the future stserve daemon, a plain net/http listener in CI, an
// httptest server in tests) turns a local store into a shared warm
// tier for distributed workers:
//
//	GET  /units/<hash>  →  200 + entry bytes, or 404 on a miss
//	PUT  /units/<hash>  →  204 after a durable store write; 400 for
//	                       an entry that does not decode
//	GET  /stats         →  200 + the backing store's []TierStats
//	GET  /healthz       →  health JSON: 200 while healthy, 503 while
//	                       the backing store reports degraded
//	GET  /metrics       →  Prometheus text exposition (only with
//	                       WithRegistry)
//
// Unit hashes are the engine's content addresses (64 hex chars) and
// are validated strictly, so a crafted path can never escape into
// the backing store's namespace. Entry bodies are
// application/octet-stream in campaign.EncodeEntry's binary form,
// the same bytes every store tier holds.
//
// Server-side fault mode: hand Handler a store wrapped in a
// campaign.FaultStore and the server becomes a deterministic flaky
// remote for integration tests — injected retryable failures surface
// as 503s (which campaign.HTTPStore classifies as retryable),
// injected corrupt entries as 404 misses, and injected dropped
// writes as acknowledged 204s that never persist.
package storehttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"silenttracker/internal/campaign"
	"silenttracker/internal/obs"
)

// maxEntryBytes bounds an uploaded entry. Mirrors the client-side
// read bound: real entries are a few KB.
const maxEntryBytes = 16 << 20

// validHash reports whether s is a well-formed unit content address:
// exactly 64 lowercase hex characters (a SHA-256 in hex).
func validHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Option configures Handler beyond its store.
type Option func(*config)

type config struct {
	reg *obs.Registry
}

// WithRegistry attaches a metrics registry: the handler counts and
// times requests per route and status class
// (st_http_requests_total{route,code} — a 200 hit, a 404 miss, and a
// 400 malformed hash land in distinct series — plus
// st_http_request_seconds{route}) and serves the whole registry —
// including whatever else the process records into it — as Prometheus
// text on GET /metrics.
func WithRegistry(r *obs.Registry) Option {
	return func(c *config) { c.reg = r }
}

// Health is the /healthz response body. Status is "ok" or "degraded";
// degraded means the backing store is limping (an open breaker, a
// down tier) but still serving — load balancers get the distinction
// from the 200/503 split, humans from Tiers.
type Health struct {
	Status string               `json:"status"`
	Tiers  []campaign.TierStats `json:"tiers,omitempty"`
}

// Handler serves the given store. The store must be safe for
// concurrent use (every campaign.Store is).
func Handler(s campaign.Store, opts ...Option) http.Handler {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	// route wraps a handler with per-route request count (by status
	// class) and latency. Without a registry the handler passes
	// through untouched — no clock reads, no wrapper frame.
	route := func(name string, h http.HandlerFunc) http.Handler {
		return obs.Instrument(cfg.reg, name, h)
	}

	mux := http.NewServeMux()
	mux.Handle("/units/", route("units", func(w http.ResponseWriter, r *http.Request) {
		hash := strings.TrimPrefix(r.URL.Path, "/units/")
		if !validHash(hash) {
			http.Error(w, "storehttp: malformed unit hash", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			serveGet(w, s, hash)
		case http.MethodPut:
			servePut(w, r, s, hash)
		default:
			w.Header().Set("Allow", "GET, PUT")
			http.Error(w, "storehttp: method not allowed", http.StatusMethodNotAllowed)
		}
	}))
	mux.Handle("/stats", route("stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "storehttp: method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	}))
	// The health probe daemons and load balancers poll. It answers
	// even while the store limps — that is the point: 200 "ok" means
	// healthy, 503 "degraded" (open breaker, downed tier) means route
	// traffic elsewhere but the process is alive. The body carries the
	// per-tier counters so a human reading the probe sees why.
	mux.Handle("/healthz", route("healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "storehttp: method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h := Health{Status: "ok", Tiers: s.Stats()}
		code := http.StatusOK
		if campaign.StoreDegradedState(s) {
			h.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	}))
	if cfg.reg != nil {
		mux.Handle("/metrics", route("metrics", cfg.reg.Handler().ServeHTTP))
	}
	return mux
}

// writeJSON marshals v before touching the ResponseWriter, so an
// encoding failure becomes a clean 500 instead of a torn 200 whose
// error used to be dropped on the floor (json.Encoder.Encode straight
// into the writer cannot take the status back once it fails midway).
// A write error after that means the client went away — there is no
// one left to tell, so it is deliberately not checked.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "storehttp: encode response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(buf, '\n'))
}

func serveGet(w http.ResponseWriter, s campaign.Store, hash string) {
	var m campaign.Metrics
	var ok bool
	if f, fallible := s.(campaign.Fallible); fallible {
		var err error
		m, ok, err = f.GetE(hash)
		if campaign.Retryable(err) {
			// A transient backend failure (or an injected fault in
			// server-side chaos mode): tell the client to retry rather
			// than mis-reporting a miss.
			http.Error(w, "storehttp: store unavailable", http.StatusServiceUnavailable)
			return
		}
		// Terminal failures (corrupt entries) degrade to a miss below:
		// the client cannot fix them by retrying.
	} else {
		m, ok = s.Get(hash)
	}
	if !ok {
		http.Error(w, "storehttp: no such unit", http.StatusNotFound)
		return
	}
	buf, err := campaign.EncodeEntry(m)
	if err != nil {
		http.Error(w, "storehttp: encode entry", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf)
}

func servePut(w http.ResponseWriter, r *http.Request, s campaign.Store, hash string) {
	buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
	if err != nil {
		http.Error(w, "storehttp: read entry", http.StatusBadRequest)
		return
	}
	// Decode before storing: the store must never hold an entry that
	// would read back corrupt.
	m, ok := campaign.DecodeEntry(buf)
	if !ok {
		http.Error(w, "storehttp: malformed entry", http.StatusBadRequest)
		return
	}
	if err := s.Put(hash, m); err != nil {
		http.Error(w, "storehttp: store entry", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
