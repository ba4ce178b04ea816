// Command perfbench is silenttracker's whole-run benchmark. Run it from the
// repository root through its launcher, which builds it from source:
//
//	bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 15 --trace 0
//
// Each workload drives the public entry points of st, serve and dist in
// this one process, with a load of two compute threads or two clients
// (fewer on a smaller host; never more than its CPUs):
//
//   - cold-paper: the eight paper experiments at full fidelity, run back
//     to back through an in-process st.Client, each sweep cold into a
//     fresh disk store.
//   - cold-fleet: the urban, highway and hotspot fleet families, likewise.
//   - warm-jobs: a daemon built as stserve builds it by default, its store
//     filled by a cold run of the paper eight during set-up; closed-loop
//     clients submit full-fidelity jobs, follow each job's event stream
//     and read its rendered result.
//   - dist-cold: the same daemon over a fresh store with two in-process
//     dist workers; the fleet families run as remote quick jobs, one at a
//     time.
//
// --seed orders the campaigns of a sweep and the jobs of a loop; the
// campaigns themselves run at their registry seeds unless --campaign-seed
// is given. Every rendered result is checked against a reference that a
// second path produced: a warm single-worker re-read of the sweep's store,
// the set-up's in-process render, or the committed stbench goldens.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics, measured with tracing off:
//
//   - setup_s: median time to start the fixture — client and sessions,
//     or daemon and fleet, plus for warm-jobs the store pre-fill.
//   - wall_s, cpu_s: median wall and process CPU (user+sys) time of one
//     sweep of the workload's campaigns; for warm-jobs, the loop's time
//     per eight jobs.
//   - max_rss_mb: peak resident set (VmHWM) after the timed phase.
//   - jobs_per_s, job_p50_ms, job_p99_ms: jobs that succeeded per second
//     of the timed phase and their latency. A warm-jobs job runs from its
//     POST to the last byte of its result; on the sweep workloads the
//     client waits for the whole sweep, so a sweep is a job.
//
// The lines before it name every metric with its unit, the host (nproc,
// GOMAXPROCS, CPU model, Go version, commit) and failed_frac: the share of
// operations — campaign runs or daemon jobs — that errored, were refused
// or cancelled, or rendered bytes other than their reference. The JSON
// object carries the same count as "failed" of "attempted".
//
// With --trace 1 the workload runs untraced, then once more with timers
// at each layer boundary and a CPU profile on, then through a unit census;
// the object carries the per-layer metrics instead. Per-layer metrics of a
// layer the workload does not reach read 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"silenttracker/st"
)

var (
	paperCampaigns = []string{"fig2a", "fig2c", "mobility", "threshold",
		"hysteresis", "baseline", "patterns", "codebook"}
	fleetCampaigns = []string{"urban", "highway", "hotspot"}
)

// workload is one named set of inputs.
type workload struct {
	campaigns []string
	quick     bool
	run       func(context.Context, config, workload) (*outcome, error)
}

var workloads = map[string]workload{
	"cold-paper": {campaigns: paperCampaigns, run: runCold},
	"cold-fleet": {campaigns: fleetCampaigns, run: runCold},
	"warm-jobs":  {campaigns: paperCampaigns, run: runWarm},
	"dist-cold":  {campaigns: fleetCampaigns, quick: true, run: runDist},
}

const (
	// maxLoad is the clients or compute threads a workload runs with.
	maxLoad = 2
	// setups is how many times a run builds its fixture, cheapSetups how
	// many when that takes milliseconds; setup_s is the median.
	setups      = 3
	cheapSetups = 25
	// runDeadline bounds a whole run.
	runDeadline = 170 * time.Second
)

// config is one run's settings.
type config struct {
	seed, campaignSeed int64
	seconds            time.Duration
	trace              bool
	load               int
	work               string // scratch directory inside the checkout
}

// campaignOptions are the session options every client of the run shares.
func (c config) campaignOptions(quick bool, workers int) []st.Option {
	opts := []st.Option{st.WithWorkers(workers), st.WithSeed(c.campaignSeed)}
	if quick {
		opts = append(opts, st.WithQuick())
	}
	return opts
}

// checkLoad refuses a load — closed-loop clients plus threads computing
// trials — larger than the host's CPUs: it would measure contention for
// them rather than the system.
func checkLoad(clients, compute int) error {
	if n := runtime.NumCPU(); clients+compute > n {
		return fmt.Errorf("load of %d clients and %d compute threads exceeds nproc=%d", clients, compute, n)
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "cold-paper, cold-fleet, warm-jobs or dist-cold")
	seed := fs.Int64("seed", 1, "seed of the run's inputs: the order of campaigns and jobs")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	campaignSeed := fs.Int64("campaign-seed", 0, "campaign base seed (0 keeps the registry seeds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-paper|cold-fleet|warm-jobs|dist-cold --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := config{
		seed:         *seed,
		campaignSeed: *campaignSeed,
		seconds:      time.Duration(*seconds) * time.Second,
		trace:        *trace == 1,
		load:         min(maxLoad, runtime.NumCPU()),
		work:         filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	hr := host()
	var calib float64
	if cfg.trace {
		// Only traced runs report it; its ring would raise max_rss_mb.
		calib = calibrate()
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out, err := wl.run(ctx, cfg, wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	attempted, failed := out.tally.counts()
	if attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", *name)
		return 1
	}

	m, defs := out.e2e, endToEnd
	if cfg.trace {
		m, defs = out.layers, perLayer()
		m["host.calib_ms"] = calib
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric, len(defs))}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d load=%d\n",
		*name, cfg.seed, *seconds, *trace, cfg.load)
	hostLine, _ := json.Marshal(hr)
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	fmt.Fprintf(stdout, "failed_frac %g (%d of %d operations)\n", out.tally.failedFrac(), failed, attempted)
	for _, d := range defs {
		v := m[d.name] // a layer this workload does not reach reads 0
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics holds measured values by name.
type metrics map[string]float64

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	all := slices.Concat(paperCampaigns, fleetCampaigns)
	for _, c := range all {
		add("st.run_s."+c, "s", "lower")
	}
	add("campaign.expand_ms", "ms", "lower")
	add("campaign.execute_s", "s", "lower")
	add("campaign.fold_ms", "ms", "lower")
	for _, op := range []string{"get", "put"} {
		add("campaign."+op+".n", "count", "lower")
		add("campaign."+op+".p50_us", "us", "lower")
		add("campaign."+op+".p99_us", "us", "lower")
	}
	add("campaign.hit_ratio", "frac", "higher")
	add("runner.tail_s", "s", "lower")
	add("runner.busy_frac", "frac", "higher")
	add("experiments.unit.n", "count", "lower")
	add("experiments.unit.sum_s", "s", "lower")
	add("experiments.unit.p50_ms", "ms", "lower")
	add("experiments.unit.p99_ms", "ms", "lower")
	add("experiments.unit.max_ms", "ms", "lower")
	add("experiments.unit.allocs", "count", "lower")
	add("experiments.unit.alloc_kb", "KiB", "lower")
	for _, c := range all {
		add("experiments.unit_p50_ms."+c, "ms", "lower")
	}
	for _, c := range all {
		add("experiments.unit_max_ms."+c, "ms", "lower")
	}
	for _, mod := range cpuModules {
		add("cpu."+mod, "frac", "lower")
	}
	add("serve.submit.p50_ms", "ms", "lower")
	add("serve.submit.p99_ms", "ms", "lower")
	add("serve.result.p50_ms", "ms", "lower")
	add("serve.result.p99_ms", "ms", "lower")
	add("serve.wait.p50_ms", "ms", "lower")
	add("serve.rejected.n", "count", "lower")
	add("dist.lease.n", "count", "lower")
	add("dist.lease.p50_ms", "ms", "lower")
	add("dist.lease.p99_ms", "ms", "lower")
	add("dist.lease_empty.n", "count", "lower")
	add("dist.complete.n", "count", "lower")
	add("dist.complete.p50_ms", "ms", "lower")
	add("dist.heartbeat.n", "count", "lower")
	add("dist.compute_frac", "frac", "higher")
	add("storehttp.get.n", "count", "lower")
	add("storehttp.get.p50_ms", "ms", "lower")
	add("storehttp.put.n", "count", "lower")
	add("storehttp.put.p50_ms", "ms", "lower")
	add("storehttp.put.p99_ms", "ms", "lower")
	add("trace.overhead_frac", "frac", "lower")
	add("host.calib_ms", "ms", "lower")
	return defs
}
