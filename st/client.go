package st

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"silenttracker/internal/campaign"
	"silenttracker/internal/experiments"
	"silenttracker/internal/obs"
)

// ErrUnknownExperiment is wrapped by errors returned for names that
// match no registered experiment (test with errors.Is).
var ErrUnknownExperiment = errors.New("unknown experiment")

// CancelledError is returned by Run when its context is cancelled.
// Stats report what completed before the engine stopped dispatching —
// every computed unit was persisted to the cache, so a follow-up run
// computes only the remainder. It unwraps to the context's error.
type CancelledError struct {
	Stats Stats
	Err   error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("run cancelled (%s): %v", e.Stats, e.Err)
}

// Unwrap exposes the underlying context error to errors.Is.
func (e *CancelledError) Unwrap() error { return e.Err }

// settings is the resolved option set. Client options set the
// defaults; Session options override them per run.
type settings struct {
	seed         int64
	trials       int
	quick        bool
	workers      int
	cacheDir     string
	memBudget    int64
	remoteURL    string
	store        Store
	retry        RetryPolicy
	chaosProfile string
	chaosSeed    int64
	progress     func(Event)
	metrics      bool
	dist         Distributor
}

// storeCfg extracts the store-shaping subset of the settings. Two
// sessions with equal store configs share the client's store; a
// session that changes any of these builds (and owns) its own.
func (s *settings) storeCfg() storeConfig {
	return storeConfig{cacheDir: s.cacheDir, memBudget: s.memBudget,
		remoteURL: s.remoteURL, custom: s.store, retry: s.retry,
		chaosProfile: s.chaosProfile, chaosSeed: s.chaosSeed,
		metrics: s.metrics}
}

// Option configures a Client or a Session (functional options).
type Option func(*settings)

// WithSeed overrides the base seed (0 keeps each experiment's
// default). Changing the seed changes the result-cache keys.
func WithSeed(seed int64) Option { return func(s *settings) { s.seed = seed } }

// WithTrials overrides the per-cell trial count (0 keeps the default,
// after any quick reduction).
func WithTrials(n int) Option { return func(s *settings) { s.trials = n } }

// WithQuick selects the reduced smoke-run trial counts — the same
// reductions the CLIs apply under -quick. Quick runs share cache units
// with full runs of the same experiment: a full sweep after a quick
// one computes just the delta.
func WithQuick() Option { return func(s *settings) { s.quick = true } }

// WithFull selects full-fidelity trial counts (the default); it undoes
// a client-level WithQuick for one session.
func WithFull() Option { return func(s *settings) { s.quick = false } }

// WithWorkers sets trial parallelism (0, the default, uses
// GOMAXPROCS). Worker count never changes results.
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }

// WithCacheDir enables the on-disk tier of the content-addressed
// result store at dir (created on first use; an existing non-empty
// directory must carry the cache marker). An empty dir — the default —
// disables the disk tier.
func WithCacheDir(dir string) Option { return func(s *settings) { s.cacheDir = dir } }

// WithMemCache enables an in-memory LRU hot tier holding up to budget
// bytes of entries, checked before any disk or remote tier. A budget
// ≤ 0 disables the tier (the default). However small the budget, the
// tier keeps at least the most recent entry; eviction only changes
// how many units recompute, never the rendered bytes.
func WithMemCache(budget int64) Option { return func(s *settings) { s.memBudget = budget } }

// WithRemoteCache enables a shared remote tier: a storehttp server at
// baseURL, checked after any memory and disk tiers. A dead or
// misbehaving remote degrades to misses (units recompute); it never
// fails a run. An empty URL disables the tier (the default).
func WithRemoteCache(baseURL string) Option { return func(s *settings) { s.remoteURL = baseURL } }

// WithRemoteRetry arms the remote tier's resilience stack: bounded
// retries with exponential backoff and deterministic jitter around
// every remote op, guarded by a circuit breaker that short-circuits
// the tier to misses while the remote is down and probes it back to
// health. Only the remote tier is wrapped — memory and disk tiers
// fail differently and recover nothing by retrying. The stack never
// changes rendered output: like every store behaviour, it only moves
// the computed/cached split. A zero-valued policy disables the stack
// (the default); start from DefaultRetryPolicy.
func WithRemoteRetry(p RetryPolicy) Option { return func(s *settings) { s.retry = p } }

// WithChaos wraps one built-in tier in a deterministic fault injector
// for resilience testing: profile names a campaign-defined fault mix
// ("flaky-remote", "corrupt-mem", "dead-remote") and seed fixes the
// injected fault schedule — the same seed reproduces the same faults
// and the same stats counters. The profile's target tier must be
// configured, and WithChaos cannot wrap a WithStore backend; both are
// build-time errors. An empty profile disables injection (the
// default). Chaos never changes rendered output — injected faults
// only force recomputation or recovery.
func WithChaos(seed int64, profile string) Option {
	return func(s *settings) { s.chaosSeed, s.chaosProfile = seed, profile }
}

// WithStore plugs in a custom result-store backend, replacing every
// built-in tier (WithCacheDir / WithMemCache / WithRemoteCache are
// ignored while a custom store is set). The store must satisfy the
// Store contract. Close is forwarded to it when the owning Client or
// Session is closed. Stores are compared by interface identity when
// deciding whether a session shares the client's store, so use a
// pointer type.
func WithStore(store Store) Option { return func(s *settings) { s.store = store } }

// WithoutCache disables the result store entirely — every tier, and
// any custom WithStore backend — overriding client-level store options
// for one session.
func WithoutCache() Option {
	return func(s *settings) {
		s.cacheDir, s.memBudget, s.remoteURL, s.store = "", 0, "", nil
		s.retry, s.chaosProfile, s.chaosSeed = RetryPolicy{}, "", 0
		s.dist = nil // distribution has no data path without a store
	}
}

// WithProgress subscribes fn to the run's typed progress event stream.
// Events are delivered serially; fn needs no locking. A nil fn
// unsubscribes.
func WithProgress(fn func(Event)) Option { return func(s *settings) { s.progress = fn } }

// WithMetrics enables run telemetry: a metrics registry accumulating
// counters and latency histograms across runs (engine phases, unit
// compute/cache service time, store-tier latency, worker-pool
// utilization), served as Prometheus text by MetricsHandler, plus a
// per-run Report on every Result with the run's span tree and metric
// deltas. Telemetry never changes results — rendered output is
// byte-identical with metrics on or off — and costs nothing when off
// (the default): the disabled hot path reads no clocks and allocates
// nothing.
func WithMetrics() Option { return func(s *settings) { s.metrics = true } }

// Client is the entry point of the public API: it carries cross-run
// configuration (result store, worker count, defaults for every
// session) and hands out Sessions bound to single experiments. A
// Client is safe for concurrent use; the result store it builds is
// shared by all its sessions.
type Client struct {
	cfg   settings
	store campaign.Store // nil when caching is disabled
	obs   *obs.Registry  // nil without WithMetrics

	// progressMu serialises progress callbacks across every session of
	// this client, so WithProgress's no-locking-needed contract holds
	// even when concurrent Runs share one callback. (The engine already
	// serialises within a single run; this extends that across runs.)
	progressMu sync.Mutex
}

// NewClient builds a Client. The result store — whatever mix of
// memory, disk, and remote tiers (or custom backend) the options
// select — is assembled eagerly, so configuration errors surface here
// rather than mid-run.
func NewClient(opts ...Option) (*Client, error) {
	var cfg settings
	for _, o := range opts {
		o(&cfg)
	}
	var reg *obs.Registry
	if cfg.metrics {
		reg = obs.NewRegistry()
	}
	store, err := buildStore(cfg.storeCfg(), reg)
	if err != nil {
		return nil, err
	}
	return &Client{cfg: cfg, store: store, obs: reg}, nil
}

// MetricsHandler serves the client's metrics registry as Prometheus
// text exposition (GET only) — mount it at /metrics on any HTTP
// server. Without WithMetrics the handler serves an empty, valid
// exposition, so mounting is always safe.
func (c *Client) MetricsHandler() http.Handler { return c.obs.Handler() }

// Close releases the client's result store (idle HTTP connections,
// in-memory tiers). Sessions that built their own store via overriding
// options are unaffected — close those separately. Safe on a
// store-less client.
func (c *Client) Close() error {
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}

// CleanCache removes a result-cache directory. It refuses to delete a
// directory that does not carry the cache marker, so a mistyped path
// can never destroy user data; a nonexistent directory is a no-op.
func CleanCache(dir string) error { return campaign.Clean(dir) }

// Info describes one registered experiment at the client's settings.
type Info struct {
	// Name is the canonical registry name ("threshold"); Alias is the
	// stbench-era name when it differs ("ablation-threshold").
	Name  string `json:"name"`
	Alias string `json:"alias,omitempty"`
	// Title is the banner headline; Description the one-line summary.
	Title       string `json:"title"`
	Description string `json:"description"`
	// Units counts the sweep's units at the client's settings: Cells ×
	// Trials, times the blocks per trial where a spec splits trials.
	Cells  int `json:"cells"`
	Trials int `json:"trials"`
	Units  int `json:"units"`
	// HasCSV reports whether the experiment has a raw-sample CSV form.
	HasCSV bool `json:"has_csv,omitempty"`
}

// BenchName returns the stbench-era name: the alias when set, the
// canonical name otherwise.
func (in Info) BenchName() string {
	if in.Alias != "" {
		return in.Alias
	}
	return in.Name
}

// Experiments lists every registered experiment, in the registry's
// canonical order, sized at the client's settings.
func (c *Client) Experiments() []Info {
	defs := experiments.Campaigns()
	out := make([]Info, 0, len(defs))
	for _, def := range defs {
		spec := def.Build(c.params())
		out = append(out, Info{
			Name:        def.Name,
			Alias:       def.Alias,
			Title:       def.Title,
			Description: spec.Description,
			Cells:       len(spec.Cells()),
			Trials:      spec.Trials,
			Units:       spec.Units(),
			HasCSV:      def.CSV != nil,
		})
	}
	return out
}

// Axis is one dimension of a sweep grid.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// CellKey pairs one grid cell with the content-address of its first
// unit (trial 0, block 0) in the result cache.
type CellKey struct {
	Cell Cell   `json:"cell"`
	Key  string `json:"key"`
}

// Description is the full declarative shape of one experiment at a
// given option set: axes, seed schedule, cache identity, and the
// expanded grid with cache keys.
type Description struct {
	Name        string    `json:"name"`
	Description string    `json:"description"`
	Epoch       string    `json:"epoch"`
	Config      string    `json:"config,omitempty"`
	Seed        int64     `json:"seed"`
	SeedStride  int64     `json:"seed_stride"`
	Trials      int       `json:"trials"`
	Axes        []Axis    `json:"axes"`
	Cells       []CellKey `json:"cells"`
	Units       int       `json:"units"`
}

// Describe returns the named experiment's Description at the client's
// settings plus any per-call options.
func (c *Client) Describe(name string, opts ...Option) (*Description, error) {
	s, err := c.Session(name, opts...)
	if err != nil {
		return nil, err
	}
	return s.Describe(), nil
}

// params maps the resolved settings onto the experiment registry's
// parameter struct.
func (c *Client) params() experiments.CampaignParams {
	return experiments.CampaignParams{Quick: c.cfg.quick, Seed: c.cfg.seed, Trials: c.cfg.trials}
}

// Session binds one experiment (by canonical name or stbench alias) to
// a resolved option set: the client's settings plus the given
// overrides. The spec is built once, so a Session pins the exact sweep
// it will run.
func (c *Client) Session(name string, opts ...Option) (*Session, error) {
	def, ok := experiments.CampaignNamed(name)
	if !ok {
		return nil, fmt.Errorf("st: %q: %w", name, ErrUnknownExperiment)
	}
	cfg := c.cfg
	for _, o := range opts {
		o(&cfg)
	}
	// The session's registry: the client's when metrics were already
	// on (telemetry accumulates across the client's sessions), a fresh
	// one when this session alone enables them, nil when it disables
	// them.
	reg := c.obs
	if cfg.metrics && reg == nil {
		reg = obs.NewRegistry()
	} else if !cfg.metrics {
		reg = nil
	}
	store, ownsStore := c.store, false
	if cfg.storeCfg() != c.cfg.storeCfg() {
		// The session overrode the store shape; build its own.
		built, err := buildStore(cfg.storeCfg(), reg)
		if err != nil {
			return nil, err
		}
		store, ownsStore = built, built != nil
	}
	if cfg.dist != nil && store == nil {
		return nil, fmt.Errorf("st: %q: distributed execution requires a result store (the data path between workers and the fold)", name)
	}
	params := experiments.CampaignParams{Quick: cfg.quick, Seed: cfg.seed, Trials: cfg.trials}
	return &Session{
		def:        def,
		cfg:        cfg,
		store:      store,
		ownsStore:  ownsStore,
		obs:        reg,
		progressMu: &c.progressMu,
		spec:       def.Build(params),
	}, nil
}

// Run is the one-shot convenience path: Session + Session.Run. Any
// session-private store the overriding options built is closed before
// returning.
func (c *Client) Run(ctx context.Context, name string, opts ...Option) (*Result, error) {
	s, err := c.Session(name, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close() // built-in stores never fail Close; a custom one's error is dropped
	return s.Run(ctx)
}

// Session is one experiment bound to a resolved option set. Sessions
// are cheap; build one per run.
type Session struct {
	def        experiments.CampaignDef
	cfg        settings
	store      campaign.Store
	ownsStore  bool          // the session built store (overriding options); Close releases it
	obs        *obs.Registry // nil without WithMetrics
	progressMu *sync.Mutex   // shared with the parent client's sessions
	spec       *campaign.Spec
}

// Close releases the session's result store if the session built one
// (its options overrode the client's store shape); a session sharing
// the client's store is untouched. Safe to call repeatedly.
func (s *Session) Close() error {
	if !s.ownsStore || s.store == nil {
		return nil
	}
	store := s.store
	s.store, s.ownsStore = nil, false
	return store.Close()
}

// Name returns the canonical experiment name.
func (s *Session) Name() string { return s.def.Name }

// Describe returns the session's full declarative shape, including
// per-cell cache keys.
func (s *Session) Describe() *Description {
	spec := s.spec
	axes := make([]Axis, len(spec.Axes))
	for i, a := range spec.Axes {
		axes[i] = Axis{Name: a.Name, Values: a.Values}
	}
	cells := spec.Cells()
	keys := make([]CellKey, len(cells))
	for i, cell := range cells {
		keys[i] = CellKey{Cell: publicCell(cell), Key: spec.UnitKey(cell, 0, 0).Hash()}
	}
	return &Description{
		Name:        spec.Name,
		Description: spec.Description,
		Epoch:       spec.Epoch,
		Config:      spec.Config,
		Seed:        spec.Seed,
		SeedStride:  spec.SeedStride,
		Trials:      spec.Trials,
		Axes:        axes,
		Cells:       keys,
		Units:       spec.Units(),
	}
}

// Run executes the session's sweep: cache-first across the worker
// pool, folded deterministically, returning the structured Result.
// Cancellation via ctx stops dispatching units; completed units stay
// in the cache, and the returned error is a *CancelledError wrapping
// ctx.Err().
func (s *Session) Run(ctx context.Context) (*Result, error) {
	eng := campaign.Engine{Store: s.store, Workers: s.cfg.workers, Obs: s.obs}
	if d := s.cfg.dist; d != nil {
		job := s.jobRequest()
		eng.Distribute = func(ctx context.Context, units []campaign.UnitRef) error {
			pub := make([]UnitRef, len(units))
			for i, u := range units {
				pub[i] = UnitRef(u)
			}
			return d.Distribute(ctx, job, pub)
		}
	}
	if fn := s.cfg.progress; fn != nil {
		mu := s.progressMu
		eng.Progress = func(ev campaign.Event) {
			mu.Lock()
			defer mu.Unlock()
			fn(publicEvent(ev))
		}
	}
	// Bracket the run with registry snapshots so the Report carries
	// this run's deltas while the registry keeps accumulating totals
	// for /metrics scrapes.
	var before obs.Snapshot
	if s.obs != nil {
		before = s.obs.Snapshot()
	}
	cells, stats, err := eng.RunCtx(ctx, s.spec)
	if err != nil {
		return nil, &CancelledError{Stats: publicStats(stats), Err: err}
	}
	params := experiments.CampaignParams{Quick: s.cfg.quick, Seed: s.spec.Seed, Trials: s.spec.Trials}
	res := &Result{
		Campaign:    s.def.Name,
		Title:       s.def.Title,
		Description: s.spec.Description,
		Quick:       s.cfg.quick,
		Seed:        s.spec.Seed,
		Trials:      s.spec.Trials,
		Cells:       publicCells(cells),
		Table:       publicTable(s.def.Table(cells, params)),
		Stats:       publicStats(stats),
	}
	if s.obs != nil {
		res.Report = buildReport(s.def.Name, stats.Span, s.obs.Snapshot().Sub(before), res.Stats)
	}
	return res, nil
}

// publicEvent converts an engine progress event to its public mirror.
func publicEvent(ev campaign.Event) Event {
	switch ev := ev.(type) {
	case campaign.UnitDone:
		return UnitDone{Campaign: ev.Spec, Cell: publicCell(ev.Cell), Trial: ev.Trial,
			Cached: ev.Cached, Done: ev.Done, Units: ev.Units}
	case campaign.PhaseDone:
		return PhaseDone{Campaign: ev.Spec, Phase: ev.Phase, Duration: ev.Duration}
	case campaign.CellDone:
		return CellDone{Campaign: ev.Spec, Cell: publicCell(ev.Cell),
			Index: ev.Index, Cells: ev.Cells}
	case campaign.SpecDone:
		return SpecDone{Campaign: ev.Spec, Stats: publicStats(ev.Stats)}
	case campaign.StoreDegraded:
		return StoreDegraded{Campaign: ev.Spec, Err: ev.Err}
	}
	panic(fmt.Sprintf("st: unknown campaign event %T", ev))
}
