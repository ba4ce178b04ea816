package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"silenttracker/internal/obs"
	"silenttracker/internal/runner"
)

// RunStats summarises one engine run.
type RunStats struct {
	Units    int `json:"units"`    // trial units the spec expanded to
	Computed int `json:"computed"` // units actually executed
	Cached   int `json:"cached"`   // units served from the result store
	// Tiers carries this run's per-store-tier counters (hit / miss /
	// corrupt / evict / error), one entry per tier in tier order.
	// Empty for a store-less run. Counters are per-run deltas of the
	// store's cumulative totals; concurrent runs sharing one store
	// see a best-effort attribution.
	Tiers []TierStats `json:"tiers,omitempty"`
	// PutFailed counts units whose result-store write failed (every
	// tier rejected it). The run's results are unaffected — a lost
	// write only costs a recompute on some future run — but a nonzero
	// count means the store is degraded, so it is surfaced here and
	// via the StoreDegraded event rather than dropped silently.
	PutFailed int           `json:"put_failed,omitempty"`
	Elapsed   time.Duration `json:"elapsed"` // wall clock of the Run call
	// Span is the run's timing tree — root named after the spec, one
	// child per engine phase (expand, distribute when a distributor is
	// wired in, execute, fold). Present only when
	// the engine carries a metrics registry; like Elapsed it is
	// measurement, not results, and is excluded from String().
	Span *obs.SpanValue `json:"span,omitempty"`
}

// String renders the stats as the stable one-line form the CLI prints
// (and CI greps): the fixed units/computed/cached triple first — so
// existing parsers keep working — then one bracket group per store
// tier. Elapsed is excluded so the line is comparable across runs.
func (rs RunStats) String() string {
	s := fmt.Sprintf("units=%d computed=%d cached=%d", rs.Units, rs.Computed, rs.Cached)
	for _, t := range rs.Tiers {
		s += " " + t.String()
	}
	return s
}

// Engine executes specs. A nil Store disables caching (every unit
// computes); Workers follows the runner convention (0 = GOMAXPROCS)
// and never changes results. Progress, when non-nil, receives the
// typed event stream (events.go); the engine serialises calls, so the
// callback itself need not be safe for concurrent use.
//
// The store invariant: the backend mix (disk, mem, remote, tiered,
// none) may only change RunStats.Computed/Cached/Tiers, never the
// folded cells — any Store yields byte-identical rendered output.
type Engine struct {
	Store    Store
	Workers  int
	Progress func(Event)
	// Obs, when non-nil, receives the run's telemetry: phase latency
	// histograms, per-unit compute/cache latency, worker-pool
	// utilization, and run counters (observe.go names them all). A nil
	// registry costs nothing on the unit hot path — no clock reads, no
	// atomics. Telemetry never influences results: metrics on or off,
	// the folded cells are byte-identical.
	Obs *obs.Registry
	// Distribute, when non-nil (and a Store is configured), hands the
	// expanded unit list to an external scheduler between the expand
	// and execute phases — the distributed-execution seam. It should
	// block until remote workers have pushed the units' results into
	// the shared Store; the engine's subsequent cache-first execute
	// sweep then serves every unit from the store and computes any
	// remainder locally (lost writes, stragglers the distributor gave
	// up on), so byte identity and the event contract hold regardless
	// of what the distributor achieved. A non-cancellation error
	// degrades to fully local execution; a cancelled context aborts
	// the run with ctx.Err().
	Distribute func(ctx context.Context, units []UnitRef) error
}

// emit delivers one progress event under the engine's lock.
func (e *Engine) emit(mu *sync.Mutex, ev Event) {
	if e.Progress == nil {
		return
	}
	mu.Lock()
	e.Progress(ev)
	mu.Unlock()
}

// Run expands the spec into units, executes them (cache-first)
// across the worker pool, and folds the results into per-cell trial
// vectors, concatenating each trial's blocks into one Metrics.
// Determinism: units are indexed (cell-major, then trial, then block)
// before execution and folded by index, so the fold sees the exact
// sequence a serial loop over (cell, trial, block) would produce —
// at any worker count, and whether a unit was computed or loaded.
func (e *Engine) Run(spec *Spec) ([]CellResult, RunStats) {
	cells, stats, err := e.RunCtx(context.Background(), spec)
	if err != nil {
		// Unreachable: a background context never cancels, and RunCtx
		// has no other error path.
		panic(fmt.Sprintf("campaign: Run: %v", err))
	}
	return cells, stats
}

// RunCtx is Run with cooperative cancellation. Once ctx is cancelled
// the engine stops dispatching units; in-flight units run to
// completion and their results are persisted to the cache (each unit
// writes its own cache entry the moment it computes), so a cancelled
// cold run followed by a warm run computes only the remainder. On
// cancellation the folded cells are withheld (nil) — a partial fold
// would depend on worker timing — and the returned error is ctx.Err().
// The returned stats count the units that did finish.
func (e *Engine) RunCtx(ctx context.Context, spec *Spec) ([]CellResult, RunStats, error) {
	start := time.Now()
	cells := spec.Cells()

	// Telemetry setup. ins is nil without a registry — every record
	// helper no-ops and, crucially, the unit hot path reads no clocks.
	// The span tree is built whenever anyone consumes phase timing:
	// the registry (histograms + stats.Span) or a Progress consumer
	// (PhaseDone events).
	ins := newEngineObs(e.Obs)
	traced := ins != nil || e.Progress != nil
	var root *obs.Span
	if traced {
		root = obs.StartSpan(spec.Name)
	}
	ins.runStart()
	completed := false
	defer func() { ins.runEnd(completed) }()

	// Progress bookkeeping: done/computed/cached advance as units
	// finish so a cancelled run still reports what it completed. The
	// mutex both guards the counters and serialises Progress calls.
	var mu sync.Mutex

	// endPhase closes one phase span, feeds its duration to the phase
	// histogram, and announces it on the event stream. Phase events are
	// ordered by construction: expand before any UnitDone, execute
	// after all of them, fold before SpecDone.
	endPhase := func(span *obs.Span, phase string) {
		d := span.End()
		ins.observePhase(phase, d)
		if e.Progress != nil {
			e.emit(&mu, PhaseDone{Spec: spec.Name, Phase: phase, Duration: d})
		}
	}

	// Snapshot the store's cumulative tier counters so the returned
	// stats carry this run's deltas.
	var tiersBefore []TierStats
	if e.Store != nil {
		tiersBefore = e.Store.Stats()
	}
	tiersNow := func() []TierStats {
		if e.Store == nil {
			return nil
		}
		return tierDelta(tiersBefore, e.Store.Stats())
	}

	// Expand: enumerate and content-address the trial units.
	expandSpan := root.Child("expand")
	units := expandUnits(spec, cells, e.Store != nil)
	endPhase(expandSpan, "expand")

	// Distribute: when a scheduler is wired in, give remote workers a
	// chance to fill the store before the local sweep. The sweep below
	// is what folds — distribution only changes the computed/cached
	// split, never the rendered bytes, and a failed distribution (dead
	// coordinator, no workers) falls through to plain local execution.
	if e.Distribute != nil && e.Store != nil && len(units) > 0 {
		distSpan := root.Child("distribute")
		err := e.Distribute(ctx, units)
		if err != nil && ctx.Err() != nil {
			// Cancelled mid-distribution: same contract as a cancelled
			// execute — no further phase events, folded cells withheld.
			root.End()
			stats := RunStats{Units: len(units), Tiers: tiersNow(),
				Elapsed: time.Since(start)}
			return nil, stats, ctx.Err()
		}
		endPhase(distSpan, "distribute")
	}

	done, computed, cached, putFailed := 0, 0, 0, 0
	finish := func(u UnitRef, wasCached bool) {
		if wasCached {
			cached++
		} else {
			computed++
		}
		done++
		if e.Progress != nil {
			e.Progress(UnitDone{
				Spec:   spec.Name,
				Cell:   cells[u.Cell],
				Trial:  u.Trial,
				Cached: wasCached,
				Done:   done,
				Units:  len(units),
			})
		}
	}

	// Execute: every unit, cache-first, across the worker pool. The
	// pool observer is passed via ins.pool() so a nil *engineObs
	// becomes a true nil interface and the runner skips its clocks.
	execSpan := root.Child("execute")
	type outcome struct {
		m        Metrics
		computed bool
	}
	results, err := runner.MapCtxObserved(ctx, len(units), e.Workers, func(i int) outcome {
		u := units[i]
		var t0 time.Time
		if ins != nil {
			t0 = time.Now()
		}
		if e.Store != nil {
			if m, ok := e.Store.Get(u.Hash); ok {
				if ins != nil {
					ins.observeUnit(true, time.Since(t0))
				}
				mu.Lock()
				finish(u, true)
				mu.Unlock()
				return outcome{m: m}
			}
		}
		m := spec.Trial(cells[u.Cell], u.Seed, u.Block)
		if e.Store != nil {
			// A failed store (full disk, dead remote) degrades to
			// recomputation on the next run; this run's result is
			// unaffected, so the error is not fatal — but it must not
			// vanish either: the first failure is announced once via
			// StoreDegraded (rate-limited by design) and the final
			// count lands in RunStats.PutFailed.
			if err := e.Store.Put(u.Hash, m); err != nil {
				mu.Lock()
				putFailed++
				if putFailed == 1 && e.Progress != nil {
					e.Progress(StoreDegraded{Spec: spec.Name, Err: err})
				}
				mu.Unlock()
			}
		}
		if ins != nil {
			ins.observeUnit(false, time.Since(t0))
		}
		mu.Lock()
		finish(u, false)
		mu.Unlock()
		return outcome{m: m, computed: true}
	}, ins.pool())
	if err != nil {
		// Cancelled: the span tree and phase events stop here — a
		// partial phase duration would be worker-timing noise, and the
		// event contract promises no phase events after cancellation.
		root.End()
		mu.Lock()
		stats := RunStats{Units: len(units), Computed: computed, Cached: cached,
			PutFailed: putFailed, Tiers: tiersNow(), Elapsed: time.Since(start)}
		mu.Unlock()
		return nil, stats, err
	}
	endPhase(execSpan, "execute")

	// Fold: results into cell order, then per-cell completion events.
	foldSpan := root.Child("fold")
	out := make([]CellResult, len(cells))
	for i := range cells {
		out[i] = CellResult{Cell: cells[i], Trials: make([]Metrics, 0, spec.Trials)}
	}
	stats := RunStats{Units: len(units), PutFailed: putFailed}
	for i, r := range results {
		u := units[i]
		c := &out[u.Cell]
		switch {
		case u.Block > 0:
			c.Trials[len(c.Trials)-1].Append(r.m)
		case i+1 < len(units) && units[i+1].Block > 0:
			// The first of several blocks: fold into a fresh Metrics so
			// appending the later blocks never writes through to r.m.
			m := make(Metrics, len(r.m))
			m.Append(r.m)
			c.Trials = append(c.Trials, m)
		default:
			c.Trials = append(c.Trials, r.m)
		}
		if r.computed {
			stats.Computed++
		} else {
			stats.Cached++
		}
	}
	if e.Progress != nil {
		for i := range out {
			e.emit(&mu, CellDone{Spec: spec.Name, Cell: out[i].Cell,
				Index: i, Cells: len(out)})
		}
	}
	endPhase(foldSpan, "fold")
	root.End()
	if e.Obs != nil {
		v := root.Value()
		stats.Span = &v
	}
	completed = true
	stats.Tiers = tiersNow()
	stats.Elapsed = time.Since(start)
	e.emit(&mu, SpecDone{Spec: spec.Name, Stats: stats})
	return out, stats, nil
}

// Collect is the convenience path the thin experiment runners use:
// run the spec with no cache at the given parallelism and return the
// folded cells.
func Collect(spec *Spec, workers int) []CellResult {
	eng := Engine{Workers: workers}
	cells, _ := eng.Run(spec)
	return cells
}
