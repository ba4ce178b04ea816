package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"silenttracker/internal/campaign"
	"silenttracker/st"
)

// outcome is what a workload's run measured.
type outcome struct {
	tally  tally
	e2e    metrics // end-to-end metrics of the untraced phase
	layers metrics // per-layer metrics of the traced phase (trace runs only)
}

// phase accumulates the untraced timed phase.
type phase struct {
	setups []time.Duration
	walls  []time.Duration // per sweep of the workload's campaigns
	cpus   []time.Duration // per sweep
	jobs   []time.Duration // every successful job's latency
	timed  time.Duration   // total timed wall
}

// more reports whether another sweep of the median length still fits in
// the budget.
func (p *phase) more(budget time.Duration) bool {
	return p.timed+median(p.walls) <= budget
}

func (p *phase) addSweep(wall, cpu time.Duration, jobs []time.Duration) {
	p.walls = append(p.walls, wall)
	p.cpus = append(p.cpus, cpu)
	p.jobs = append(p.jobs, jobs...)
	p.timed += wall
	fmt.Fprintf(os.Stderr, "perfbench: sweep %d: wall %.3fs cpu %.3fs, %d jobs ok\n",
		len(p.walls), wall.Seconds(), cpu.Seconds(), len(jobs))
}

// endToEnd derives the end-to-end metrics; max_rss_mb is read now, after
// the untraced phase and before any traced one.
func (p *phase) endToEnd() metrics {
	m := metrics{}
	m["setup_s"] = median(p.setups).Seconds()
	m["wall_s"] = median(p.walls).Seconds()
	m["cpu_s"] = median(p.cpus).Seconds()
	m["max_rss_mb"] = peakRSSMB()
	if p.timed > 0 {
		m["jobs_per_s"] = float64(len(p.jobs)) / p.timed.Seconds()
	}
	m["job_p50_ms"] = percentileMS(p.jobs, 50)
	m["job_p99_ms"] = percentileMS(p.jobs, 99)
	return m
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = slices.Clone(ds)
	slices.Sort(ds)
	if n := len(ds); n%2 == 0 {
		return (ds[n/2-1] + ds[n/2]) / 2
	}
	return ds[len(ds)/2]
}

// sweepJob is a sweep's job latency list. On the sweep workloads the
// client waits for the whole sweep of campaigns, so the sweep is the job;
// it succeeded when every campaign in it did.
func sweepJob(wall time.Duration, ok bool) []time.Duration {
	if !ok {
		return nil
	}
	return []time.Duration{wall}
}

// shuffled is names in the order the run's seed picks.
func shuffled(names []string, seed int64) []string {
	out := slices.Clone(names)
	r := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// traceRecord gathers what the boundary timers saw during a traced phase.
type traceRecord struct {
	mu     sync.Mutex
	phases map[string]time.Duration   // engine phase → summed duration
	runs   map[string][]time.Duration // campaign → Session.Run walls

	store  *timedStore
	routes *routeTimer   // daemon workloads
	leases *leaseSamples // dist-cold

	wall    time.Duration // traced wall per sweep
	sweeps  float64       // sweeps the traced phase covered
	workers int           // threads the units computed on
	fleet   int           // dist workers
	cpu     map[string]float64
}

func newTraceRecord(store *timedStore, workers int) *traceRecord {
	return &traceRecord{phases: make(map[string]time.Duration),
		runs: make(map[string][]time.Duration), store: store, workers: workers}
}

// progress takes the in-process event stream.
func (tr *traceRecord) progress(ev st.Event) {
	if pd, ok := ev.(st.PhaseDone); ok {
		tr.mu.Lock()
		tr.phases[pd.Phase] += pd.Duration
		tr.mu.Unlock()
	}
}

// event takes a daemon's event stream.
func (tr *traceRecord) event(ev st.JobEvent) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	switch ev.Type {
	case "phase_done":
		tr.phases[ev.Phase] += time.Duration(ev.DurationNS)
	case "spec_done":
		if ev.Stats != nil {
			tr.runs[ev.Campaign] = append(tr.runs[ev.Campaign], ev.Stats.Elapsed)
		}
	}
}

func (tr *traceRecord) run(name string, d time.Duration) {
	tr.mu.Lock()
	tr.runs[name] = append(tr.runs[name], d)
	tr.mu.Unlock()
}

// metrics derives the per-layer metrics, per sweep of the workload's
// campaigns.
func (tr *traceRecord) metrics(untracedWall time.Duration) metrics {
	m := metrics{}
	perSweep := func(d time.Duration) time.Duration { return time.Duration(float64(d) / tr.sweeps) }
	for name, ds := range tr.runs {
		m["st.run_s."+name] = median(ds).Seconds()
	}
	m["campaign.expand_ms"] = ms(perSweep(tr.phases["expand"]))
	m["campaign.execute_s"] = perSweep(tr.phases["execute"]).Seconds()
	m["campaign.fold_ms"] = ms(perSweep(tr.phases["fold"]))

	gets, puts := tr.store.get.snapshot(), tr.store.put.snapshot()
	m["campaign.get.n"] = float64(len(gets))
	m["campaign.get.p50_us"] = 1000 * percentileMS(gets, 50)
	m["campaign.get.p99_us"] = 1000 * percentileMS(gets, 99)
	m["campaign.put.n"] = float64(len(puts))
	m["campaign.put.p50_us"] = 1000 * percentileMS(puts, 50)
	m["campaign.put.p99_us"] = 1000 * percentileMS(puts, 99)
	if len(gets) > 0 {
		m["campaign.hit_ratio"] = float64(tr.store.hits.Load()) / float64(len(gets))
	}

	// The pool's span is where units compute: execute, plus distribute
	// on a distributed run. Its tail is what the span spends beyond the
	// units' compute time spread evenly over the workers.
	span := perSweep(tr.phases["execute"] + tr.phases["distribute"])
	compute := perSweep(tr.store.compute.sum())
	m["runner.tail_s"] = (span - compute/time.Duration(tr.workers)).Seconds()
	if span > 0 {
		m["runner.busy_frac"] = compute.Seconds() / (float64(tr.workers) * span.Seconds())
	}

	if rt := tr.routes; rt != nil {
		m["serve.submit.p50_ms"] = rt.submit.pct(50)
		m["serve.submit.p99_ms"] = rt.submit.pct(99)
		m["serve.result.p50_ms"] = rt.result.pct(50)
		m["serve.result.p99_ms"] = rt.result.pct(99)
		m["serve.wait.p50_ms"] = rt.wait.pct(50)
		m["serve.rejected.n"] = float64(rt.rejected.Load())
		m["storehttp.get.n"] = float64(rt.storeGet.n())
		m["storehttp.get.p50_ms"] = rt.storeGet.pct(50)
		m["storehttp.put.n"] = float64(rt.storePut.n())
		m["storehttp.put.p50_ms"] = rt.storePut.pct(50)
		m["storehttp.put.p99_ms"] = rt.storePut.pct(99)
	}
	if ls := tr.leases; ls != nil {
		m["dist.lease.n"] = float64(ls.lease.n())
		m["dist.lease.p50_ms"] = ls.lease.pct(50)
		m["dist.lease.p99_ms"] = ls.lease.pct(99)
		m["dist.lease_empty.n"] = float64(ls.empty.Load())
		m["dist.complete.n"] = float64(ls.complete.n())
		m["dist.complete.p50_ms"] = ls.complete.pct(50)
		m["dist.heartbeat.n"] = float64(ls.heartbeats.Load())
		if tr.wall > 0 {
			m["dist.compute_frac"] = ls.compute.sum().Seconds() /
				(float64(tr.fleet) * tr.wall.Seconds() * tr.sweeps)
		}
	}
	for mod, share := range tr.cpu {
		m["cpu."+mod] = share
	}
	if untracedWall > 0 {
		m["trace.overhead_frac"] = tr.wall.Seconds()/untracedWall.Seconds() - 1
	}
	return m
}

// layers derives the per-layer metrics of a traced phase and adds those of
// the workload's unit census.
func layers(ctx context.Context, cfg config, wl workload, tr *traceRecord, untracedWall time.Duration) (metrics, error) {
	m := tr.metrics(untracedWall)
	c, err := census(ctx, cfg, wl.campaigns, wl.quick)
	if err != nil {
		return nil, err
	}
	c.metrics(m)
	return m, nil
}

// profiled runs f under the CPU profiler and folds the profile by module.
func profiled(ctx context.Context, cfg config, f func()) (map[string]float64, error) {
	path := filepath.Join(cfg.work, "cpu.pprof")
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return nil, err
	}
	f()
	pprof.StopCPUProfile()
	if err := file.Close(); err != nil {
		return nil, err
	}
	return profileShares(ctx, path)
}

// createStore makes an empty result store in dir. The timed set-ups start
// their clients over stores made this way, so a set-up times the client
// attaching to its store rather than the latency of creating files on a
// shared disk, which swings twentyfold on a busy host.
func createStore(dir string) error {
	c, err := st.NewClient(st.WithCacheDir(dir))
	if err != nil {
		return err
	}
	return c.Close()
}

// --- cold-paper, cold-fleet ---

// coldFixture is one sweep's client over a fresh disk store, with a
// session per campaign in run order.
type coldFixture struct {
	dir      string
	client   *st.Client
	order    []string
	sessions []*st.Session
}

func openCold(cfg config, wl workload, dir string, order []string, extra ...st.Option) (*coldFixture, error) {
	opts := append(cfg.campaignOptions(wl.quick, cfg.load), extra...)
	client, err := st.NewClient(opts...)
	if err != nil {
		return nil, err
	}
	fx := &coldFixture{dir: dir, client: client, order: order}
	for _, name := range order {
		sess, err := client.Session(name)
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.sessions = append(fx.sessions, sess)
	}
	return fx, nil
}

func (fx *coldFixture) close() {
	fx.client.Close() // built-in stores never fail Close
	os.RemoveAll(fx.dir)
}

// coldSweep is what one sweep rendered and how long it took.
type coldSweep struct {
	wall, cpu time.Duration
	runs      []time.Duration // Session.Run walls, in run order
	renders   [][]byte
	errs      []error
}

func (fx *coldFixture) sweep(ctx context.Context) coldSweep {
	var sw coldSweep
	cpu0, t0 := cpuTime(), time.Now()
	for _, sess := range fx.sessions {
		r0 := time.Now()
		res, err := sess.Run(ctx)
		run := time.Since(r0)
		var buf bytes.Buffer
		if err == nil {
			err = st.RenderCampaignText(&buf, res)
		}
		sw.runs = append(sw.runs, run)
		sw.renders = append(sw.renders, buf.Bytes())
		sw.errs = append(sw.errs, err)
	}
	sw.wall, sw.cpu = time.Since(t0), cpuTime()-cpu0
	return sw
}

// check accounts each campaign run of the sweep against its reference and
// reports whether all of them matched.
func (sw coldSweep) check(t *tally, order []string, refs map[string][]byte) bool {
	ok := true
	for i, name := range order {
		ok = t.record(name, sw.renders[i], refs[name], sw.errs[i]) && ok
	}
	return ok
}

// warmReread renders each campaign again from a finished sweep's store on
// a single worker: the reference the cold sweeps must match.
func warmReread(ctx context.Context, cfg config, wl workload, dir string) (map[string][]byte, error) {
	client, err := st.NewClient(append(cfg.campaignOptions(wl.quick, 1), st.WithCacheDir(dir))...)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	refs := make(map[string][]byte)
	for _, name := range wl.campaigns {
		res, err := client.Run(ctx, name)
		if err != nil {
			return nil, fmt.Errorf("reference re-read of %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := st.RenderCampaignText(&buf, res); err != nil {
			return nil, err
		}
		refs[name] = buf.Bytes()
	}
	return refs, nil
}

func runCold(ctx context.Context, cfg config, wl workload) (*outcome, error) {
	if err := checkLoad(0, cfg.load); err != nil {
		return nil, err
	}
	out := &outcome{}
	order := shuffled(wl.campaigns, cfg.seed)
	var p phase
	open := func(name string) (*coldFixture, error) {
		dir := filepath.Join(cfg.work, name)
		return openCold(cfg, wl, dir, order, st.WithCacheDir(dir))
	}
	for k := range cheapSetups {
		name := fmt.Sprintf("setup-%d", k)
		if err := createStore(filepath.Join(cfg.work, name)); err != nil {
			return nil, err
		}
		t0 := time.Now()
		fx, err := open(name)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
		fx.close()
	}
	var refs map[string][]byte
	for k := 0; k == 0 || p.more(cfg.seconds); k++ {
		fx, err := open(fmt.Sprintf("sweep-%d", k))
		if err != nil {
			return nil, err
		}
		sw := fx.sweep(ctx)
		if refs == nil {
			if refs, err = warmReread(ctx, cfg, wl, fx.dir); err != nil {
				fx.close()
				return nil, err
			}
		}
		fx.close()
		p.addSweep(sw.wall, sw.cpu, sweepJob(sw.wall, sw.check(&out.tally, order, refs)))
	}
	out.e2e = p.endToEnd()
	if !cfg.trace {
		return out, nil
	}

	dir := filepath.Join(cfg.work, "cold-traced")
	disk, err := campaign.Open(dir)
	if err != nil {
		return nil, err
	}
	tr := newTraceRecord(newTimedStore(disk), cfg.load)
	fx, err := openCold(cfg, wl, dir, order, st.WithStore(tr.store), st.WithProgress(tr.progress))
	if err != nil {
		return nil, err
	}
	var sw coldSweep
	tr.cpu, err = profiled(ctx, cfg, func() { sw = fx.sweep(ctx) })
	fx.close()
	if err != nil {
		return nil, err
	}
	sw.check(&out.tally, order, refs)
	for i, name := range order {
		tr.run(name, sw.runs[i])
	}
	tr.wall, tr.sweeps = sw.wall, 1
	out.layers, err = layers(ctx, cfg, wl, tr, median(p.walls))
	return out, err
}

// --- warm-jobs ---

// memBudget is stserve's default memory-tier budget.
const memBudget = 64 << 20

// startWarm builds the warm-jobs fixture: a daemon whose store a cold
// in-process run of the workload's campaigns has filled. Those runs'
// renders are the references the jobs must match.
func startWarm(ctx context.Context, cfg config, wl workload, dir string, traced bool) (*daemon, map[string][]byte, error) {
	d, err := startDaemon(cfg, dir, traced, 0)
	if err != nil {
		return nil, nil, err
	}
	refs := make(map[string][]byte)
	for _, name := range wl.campaigns {
		res, err := d.client.Run(ctx, name)
		var buf bytes.Buffer
		if err == nil {
			err = st.RenderCampaignText(&buf, res)
		}
		if err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("pre-fill %s: %w", name, err)
		}
		refs[name] = buf.Bytes()
	}
	return d, refs, nil
}

// tracedJobSweeps is how many passes over the eight campaigns the traced
// warm-jobs phase makes: a fixed job count keeps its store counts exact,
// and 1,000 jobs leave ten samples beyond each route's p99.
const tracedJobSweeps = 125

func runWarm(ctx context.Context, cfg config, wl workload) (*outcome, error) {
	if err := checkLoad(cfg.load, 0); err != nil {
		return nil, err
	}
	out := &outcome{}
	order := shuffled(wl.campaigns, cfg.seed)
	var p phase
	var d *daemon
	var refs map[string][]byte
	for k := range setups {
		t0 := time.Now()
		var err error
		d, refs, err = startWarm(ctx, cfg, wl, filepath.Join(cfg.work, fmt.Sprintf("warm-%d", k)), false)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
		if k < setups-1 {
			d.stop()
		}
	}
	jp := d.jobLoop(ctx, cfg, warmJob(cfg), order, refs, cfg.seconds, 0, &out.tally, nil)
	d.stop()
	p.jobs, p.timed = jp.ok, jp.wall
	sweeps := float64(len(jp.ok)) / float64(len(order))
	if sweeps > 0 {
		p.walls = []time.Duration{time.Duration(float64(jp.wall) / sweeps)}
		p.cpus = []time.Duration{time.Duration(float64(jp.cpu) / sweeps)}
	}
	out.e2e = p.endToEnd()
	if !cfg.trace {
		return out, nil
	}

	td, trefs, err := startWarm(ctx, cfg, wl, filepath.Join(cfg.work, "warm-traced"), true)
	if err != nil {
		return nil, err
	}
	td.store.reset() // count the jobs' store traffic, not the pre-fill's
	tr := newTraceRecord(td.store, cfg.load)
	tr.routes = td.routes
	n := tracedJobSweeps * len(order)
	var tp jobPhase
	tr.cpu, err = profiled(ctx, cfg, func() {
		tp = td.jobLoop(ctx, cfg, warmJob(cfg), order, trefs, 0, n, &out.tally, tr.event)
	})
	td.stop()
	if err != nil {
		return nil, err
	}
	tr.sweeps = tracedJobSweeps
	tr.wall = time.Duration(float64(tp.wall) / tr.sweeps)
	out.layers, err = layers(ctx, cfg, wl, tr, median(p.walls))
	return out, err
}

// warmJob is a full-fidelity job that must be served without computing.
func warmJob(cfg config) jobSpec {
	return jobSpec{format: "text", warm: true, req: func(name string, client int) st.JobRequest {
		return st.JobRequest{Experiment: name, Seed: cfg.campaignSeed, Client: fmt.Sprintf("client-%d", client)}
	}}
}

// --- dist-cold ---

// distRefs are the quick stbench renderings the distributed jobs must
// match: the committed goldens at registry seeds, else a local render.
func distRefs(ctx context.Context, cfg config, wl workload) (map[string][]byte, error) {
	refs := make(map[string][]byte)
	var client *st.Client
	for _, name := range wl.campaigns {
		if cfg.campaignSeed == 0 {
			buf, err := goldenBench(name)
			if err != nil {
				return nil, err
			}
			refs[name] = buf
			continue
		}
		if client == nil {
			var err error
			if client, err = st.NewClient(cfg.campaignOptions(true, cfg.load)...); err != nil {
				return nil, err
			}
			defer client.Close()
		}
		res, err := client.Run(ctx, name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := st.RenderText(&buf, res); err != nil {
			return nil, err
		}
		refs[name] = buf.Bytes()
	}
	return refs, nil
}

func runDist(ctx context.Context, cfg config, wl workload) (*outcome, error) {
	if err := checkLoad(0, cfg.load); err != nil {
		return nil, err
	}
	out := &outcome{}
	refs, err := distRefs(ctx, cfg, wl)
	if err != nil {
		return nil, err
	}
	order := shuffled(wl.campaigns, cfg.seed)
	job := jobSpec{format: "bench", req: func(name string, _ int) st.JobRequest {
		return st.JobRequest{Experiment: name, Seed: cfg.campaignSeed, Quick: true, Remote: true}
	}}
	var p phase
	start := func(name string, traced bool) (*daemon, error) {
		return startDaemon(cfg, filepath.Join(cfg.work, name), traced, cfg.load)
	}
	for k := range cheapSetups {
		name := fmt.Sprintf("setup-%d", k)
		if err := createStore(filepath.Join(cfg.work, name)); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := start(name, false)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
		d.stop()
	}
	// One client runs the jobs one after another, so the fleet's two
	// workers are the whole load and each job's tail shows in its wall.
	oneClient := cfg
	oneClient.load = 1
	for k := 0; k == 0 || p.more(cfg.seconds); k++ {
		d, err := start(fmt.Sprintf("sweep-%d", k), false)
		if err != nil {
			return nil, err
		}
		jp := d.jobLoop(ctx, oneClient, job, order, refs, 0, len(order), &out.tally, nil)
		d.stop()
		p.addSweep(jp.wall, jp.cpu, sweepJob(jp.wall, len(jp.ok) == len(order)))
	}
	out.e2e = p.endToEnd()
	if !cfg.trace {
		return out, nil
	}

	d, err := start("traced", true)
	if err != nil {
		return nil, err
	}
	tr := newTraceRecord(d.store, cfg.load)
	tr.routes, tr.leases, tr.fleet = d.routes, d.leases, cfg.load
	var jp jobPhase
	tr.cpu, err = profiled(ctx, cfg, func() {
		jp = d.jobLoop(ctx, oneClient, job, order, refs, 0, len(order), &out.tally, tr.event)
	})
	d.stop()
	if err != nil {
		return nil, err
	}
	tr.wall, tr.sweeps = jp.wall, 1
	out.layers, err = layers(ctx, cfg, wl, tr, median(p.walls))
	return out, err
}
