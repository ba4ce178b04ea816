// Benchmarks regenerating the paper's evaluation. One benchmark per
// figure panel / table row family; each iteration runs one full
// scenario trial, so ns/op is the cost of one experiment trial and
// the reported custom metrics summarise the protocol outcomes across
// the iterations the harness chose to run.
//
// Run everything:
//
//	go test -bench=. -benchmem
package silenttracker

import (
	"fmt"
	"testing"

	"silenttracker/internal/antenna"
	"silenttracker/internal/campaign"
	"silenttracker/internal/channel"
	"silenttracker/internal/core"
	"silenttracker/internal/experiments"
	"silenttracker/internal/geom"
	"silenttracker/internal/handover"
	"silenttracker/internal/mac"
	"silenttracker/internal/mobility"
	"silenttracker/internal/phy"
	"silenttracker/internal/rng"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
	"silenttracker/internal/ue"
)

// --- Figure 2a: directional search under mobility -------------------

func benchSearch(b *testing.B, cfg experiments.BeamConfig) {
	opts := experiments.DefaultFig2aOpts()
	var succ stats.Rate
	var dwells stats.Online
	for i := 0; i < b.N; i++ {
		ok, d := experiments.SearchTrial(cfg, opts.Seed+int64(i)*7919, opts)
		succ.Record(ok)
		if ok {
			dwells.Add(float64(d))
		}
	}
	b.ReportMetric(succ.Percent(), "success%")
	b.ReportMetric(dwells.Mean(), "dwells/search")
}

func BenchmarkFig2aSearchNarrow(b *testing.B) { benchSearch(b, experiments.Narrow) }
func BenchmarkFig2aSearchWide(b *testing.B)   { benchSearch(b, experiments.Wide) }
func BenchmarkFig2aSearchOmni(b *testing.B)   { benchSearch(b, experiments.Omni) }

// --- Figure 2c: soft handover completion time -----------------------

func benchHandover(b *testing.B, sc experiments.Scenario) {
	var done stats.Rate
	var latency stats.Online
	for i := 0; i < b.N; i++ {
		rec, ok := experiments.HandoverTrial(sc, 2000+int64(i)*104729)
		done.Record(ok)
		if ok {
			latency.Add(rec.Latency().Millis())
		}
	}
	b.ReportMetric(done.Percent(), "completed%")
	b.ReportMetric(latency.Mean(), "latency_ms")
}

func BenchmarkFig2cWalk(b *testing.B)      { benchHandover(b, experiments.Walk) }
func BenchmarkFig2cRotation(b *testing.B)  { benchHandover(b, experiments.Rotation) }
func BenchmarkFig2cVehicular(b *testing.B) { benchHandover(b, experiments.Vehicular) }

// --- §3 claim: alignment held until handover conclusion -------------

func BenchmarkMobilityAlignment(b *testing.B) {
	rows := make([]experiments.MobilityRow, 1)
	opts := experiments.DefaultMobilityOpts()
	opts.Trials = b.N
	if opts.Trials > 0 {
		rows = experiments.RunMobility(experiments.MobilityOpts{Trials: b.N, Seed: opts.Seed})
	}
	var aligned float64
	for i := range rows {
		aligned += rows[i].AlignedFrac.Percent()
	}
	b.ReportMetric(aligned/float64(len(rows)), "aligned%")
}

// --- Ablations -------------------------------------------------------

func BenchmarkAblationThreshold(b *testing.B) {
	rows := experiments.RunThreshold(experiments.ThresholdOpts{
		Margins: []float64{3},
		Trials:  b.N,
		Seed:    4000,
		Horizon: 12 * sim.Second,
	})
	b.ReportMetric(rows[0].PingPongs.Mean(), "pingpongs/trial")
}

func BenchmarkAblationHysteresis(b *testing.B) {
	rows := experiments.RunHysteresis(experiments.HysteresisOpts{
		Triggers: []float64{3},
		Trials:   b.N,
		Seed:     5000,
	})
	b.ReportMetric(rows[0].Switches.Mean(), "switches/trial")
}

// --- Baseline comparison ---------------------------------------------

func benchBaseline(b *testing.B, v experiments.Variant) {
	rows := experiments.RunBaselineVariant(v, experiments.BaselineOpts{
		Trials: b.N, Seed: 6000, Horizon: 8 * sim.Second,
	})
	b.ReportMetric(rows.InterruptMs.Mean(), "interrupt_ms")
	b.ReportMetric(100*rows.LossRate.Mean(), "loss%")
}

func BenchmarkBaselineSilentTracker(b *testing.B) { benchBaseline(b, experiments.SilentTracker) }
func BenchmarkBaselineReactive(b *testing.B)      { benchBaseline(b, experiments.Reactive) }
func BenchmarkBaselineGenie(b *testing.B)         { benchBaseline(b, experiments.Genie) }

// --- Fleet families: one trial unit ----------------------------------
//
// One iteration is one campaign unit of a fleet family — a compiled
// deployment whose UEs each run a full world to the horizon — invoked
// through the campaign spec's own Trial entry point, so ns/op is what
// one cache miss costs the engine. The fleet families are most of a
// full run's wall clock; the 100-UE urban unit is the slowest unit of
// all.

func benchUnit(b *testing.B, spec *campaign.Spec, axis, value string) {
	var cell campaign.Cell
	for _, c := range spec.Cells() {
		if c.Get(axis) == value {
			cell = c
		}
	}
	if cell == nil {
		b.Fatalf("%s has no cell %s=%s", spec.Name, axis, value)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec.Trial(cell, spec.TrialSeed(i%spec.Trials))
	}
}

func BenchmarkUrbanUnit100(b *testing.B) {
	benchUnit(b, experiments.UrbanCampaign(experiments.DefaultUrbanOpts()), "ues", "100")
}

func BenchmarkHighwayUnit(b *testing.B) {
	benchUnit(b, experiments.HighwayCampaign(experiments.DefaultHighwayOpts()), "speed_mps", "15")
}

func BenchmarkHotspotUnit(b *testing.B) {
	benchUnit(b, experiments.HotspotCampaign(experiments.DefaultHotspotOpts()), "density", "1")
}

// --- Parallel trial engine -------------------------------------------
//
// Each pair runs the same fixed quick workload serially (Workers: 1)
// and sharded across GOMAXPROCS (Workers: 0), so comparing ns/op shows
// the runner engine's scaling. The tables produced are identical in
// both modes; only wall-clock differs.

func BenchmarkRunFig2aSerial(b *testing.B)   { benchRunFig2a(b, 1) }
func BenchmarkRunFig2aParallel(b *testing.B) { benchRunFig2a(b, 0) }

func benchRunFig2a(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		opts := experiments.Fig2aQuick(16)
		opts.Workers = workers
		experiments.RunFig2a(opts)
	}
}

func BenchmarkRunFig2cSerial(b *testing.B)   { benchRunFig2c(b, 1) }
func BenchmarkRunFig2cParallel(b *testing.B) { benchRunFig2c(b, 0) }

func benchRunFig2c(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		opts := experiments.Fig2cQuick(12)
		opts.Workers = workers
		experiments.RunFig2c(opts)
	}
}

func BenchmarkRunMobilitySerial(b *testing.B)   { benchRunMobility(b, 1) }
func BenchmarkRunMobilityParallel(b *testing.B) { benchRunMobility(b, 0) }

func benchRunMobility(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultMobilityOpts()
		opts.Trials = 8
		opts.Workers = workers
		experiments.RunMobility(opts)
	}
}

func BenchmarkRunBaselineSerial(b *testing.B)   { benchRunBaseline(b, 1) }
func BenchmarkRunBaselineParallel(b *testing.B) { benchRunBaseline(b, 0) }

func benchRunBaseline(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultBaselineOpts()
		opts.Trials = 8
		opts.Workers = workers
		experiments.RunBaseline(opts)
	}
}

// --- Result-store tiers ----------------------------------------------
//
// Get/Put micro-benchmarks per backend, plus warm engine re-runs that
// show what the mem hot tier buys over disk alone. Entry shape mirrors
// a real trial unit (a few short metric vectors).

func storeBenchMetrics(i int) campaign.Metrics {
	return campaign.Metrics{
		"lat_ms": {float64(i), float64(i) * 0.5, float64(i) * 0.25},
		"ok":     {1, 0, 1, 1},
	}
}

func storeBenchHashes(n int) []string {
	hs := make([]string, n)
	for i := range hs {
		hs[i] = fmt.Sprintf("%064x", i)
	}
	return hs
}

func benchStoreGet(b *testing.B, s campaign.Store) {
	const n = 256
	hashes := storeBenchHashes(n)
	for i, h := range hashes {
		if err := s.Put(h, storeBenchMetrics(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(hashes[i%n]); !ok {
			b.Fatal("warm store missed")
		}
	}
}

func benchStorePut(b *testing.B, s campaign.Store) {
	const n = 256
	hashes := storeBenchHashes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(hashes[i%n], storeBenchMetrics(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDiskStore(b *testing.B) *campaign.DiskStore {
	disk, err := campaign.Open(b.TempDir() + "/cache")
	if err != nil {
		b.Fatal(err)
	}
	return disk
}

func BenchmarkStoreMemGet(b *testing.B)  { benchStoreGet(b, campaign.NewMemStore(1<<20)) }
func BenchmarkStoreMemPut(b *testing.B)  { benchStorePut(b, campaign.NewMemStore(1<<20)) }
func BenchmarkStoreDiskGet(b *testing.B) { benchStoreGet(b, benchDiskStore(b)) }
func BenchmarkStoreDiskPut(b *testing.B) { benchStorePut(b, benchDiskStore(b)) }

// Tiered Get served by the hot mem tier (the steady state of a warm
// tiered run) vs forced down to disk every time (mem tier thrashing
// at a 1-entry budget).
func BenchmarkStoreTieredGetHot(b *testing.B) {
	benchStoreGet(b, campaign.NewTiered(campaign.NewMemStore(1<<20), benchDiskStore(b)))
}

func BenchmarkStoreTieredGetThrash(b *testing.B) {
	benchStoreGet(b, campaign.NewTiered(campaign.NewMemStore(1), benchDiskStore(b)))
}

// storeBenchSpec is a sweep whose trial body is nearly free, so a
// warm re-run's cost is dominated by store reads — the store overhead
// in isolation.
func storeBenchSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:   "store-bench",
		Axes:   []campaign.Axis{{Name: "a", Values: []string{"1", "2", "3", "4"}}},
		Trials: 64,
		Seed:   1,
		Epoch:  "bench",
		Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
			m := campaign.NewMetrics()
			m.Add("v", float64(seed)+float64(cell.Int("a")))
			return m
		},
	}
}

func benchWarmRun(b *testing.B, store campaign.Store) {
	spec := storeBenchSpec()
	eng := campaign.Engine{Store: store, Workers: 1}
	if _, st := eng.Run(spec); st.Computed != spec.Units() {
		b.Fatalf("seeding run: %v", st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := eng.Run(spec); st.Computed != 0 {
			b.Fatalf("warm run recomputed: %v", st)
		}
	}
}

func BenchmarkStoreWarmRunDisk(b *testing.B) { benchWarmRun(b, benchDiskStore(b)) }

func BenchmarkStoreWarmRunTiered(b *testing.B) {
	benchWarmRun(b, campaign.NewTiered(campaign.NewMemStore(1<<20), benchDiskStore(b)))
}

// The resilience wrappers over a healthy store: what the retry and
// breaker layers cost when nothing fails. PERFORMANCE.md pins this
// overhead at effectively zero — a healthy op is one extra function
// call and an atomic load or two, no sleeping, no locking on the Get
// path beyond the breaker's state check.
func BenchmarkStoreRetryHealthyGet(b *testing.B) {
	benchStoreGet(b, campaign.NewRetryStore(campaign.NewMemStore(1<<20), campaign.DefaultRetryPolicy()))
}

func BenchmarkStoreResilientStackGet(b *testing.B) {
	benchStoreGet(b, campaign.NewBreakerStore(
		campaign.NewRetryStore(campaign.NewMemStore(1<<20), campaign.DefaultRetryPolicy()),
		campaign.DefaultBreakerPolicy()))
}

func BenchmarkStoreWarmRunResilientTiered(b *testing.B) {
	benchWarmRun(b, campaign.NewTiered(campaign.NewMemStore(1<<20),
		campaign.NewBreakerStore(
			campaign.NewRetryStore(benchDiskStore(b), campaign.DefaultRetryPolicy()),
			campaign.DefaultBreakerPolicy())))
}

// --- Micro-benchmarks: substrate hot paths ---------------------------

func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(sim.Microsecond, tick)
		}
	}
	e.After(sim.Microsecond, tick)
	b.ResetTimer()
	e.Run()
}

func BenchmarkChannelMeasure(b *testing.B) {
	l := channel.NewLink(channel.DefaultParams(), 1, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Measure(float64(i)*1e-4, 15, 23, 20, 5)
	}
}

func BenchmarkAirBurstRow(b *testing.B) {
	// One full 16-beacon burst measurement through a device, the inner
	// loop of every experiment.
	cfg := phy.DefaultConfig()
	bsBook := antenna.StandardBS(0)
	ueBook := antenna.NarrowMobile()
	ch := channel.NewLink(channel.DefaultParams(), 1, "bench-burst")
	link := phy.NewAirLink(cfg, 1, bsBook, ueBook, ch, 1, "bench-burst")
	ci := &ue.CellInfo{
		ID:    1,
		Pose:  geom.Pose{Pos: geom.V(0, 0)},
		Sched: phy.NewSchedule(cfg, 0, bsBook.Size()),
		Book:  bsBook,
		Link:  link,
	}
	d := ue.NewDevice(7, mobility.Static(geom.Pose{Pos: geom.V(12, 0)}), ueBook)
	d.AddCell(ci)
	rx := d.BestRxOracle(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst := ci.Sched.NextBurst(sim.Time(i) * 20 * sim.Millisecond)
		d.MeasureBurst(1, burst, rx)
	}
}

func BenchmarkCodebookBestBeam(b *testing.B) {
	cb := antenna.NarrowMobile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.BestBeam(float64(i%628) / 100)
	}
}

func BenchmarkMessageMarshalUnmarshal(b *testing.B) {
	m := mac.Message{
		Header:  mac.Header{Type: mac.TypeBeamSwitchReq, Cell: 1, UE: 7, Seq: 42},
		Payload: mac.BeamSwitchReq{CurrentTx: 3, ProposedTx: 4, RSSdBmQ8: -12800}.Marshal(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := m.Marshal()
		if _, err := mac.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRicianDraw(b *testing.B) {
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Rician(10)
	}
}

func BenchmarkHandoverAudit(b *testing.B) {
	aud := handover.NewAuditor(1, 0)
	h := aud.Hook(nil)
	cycle := []core.EventType{
		core.EvSearchStarted, core.EvNeighborFound,
		core.EvHandoverTriggered, core.EvHandoverComplete,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h(core.Event{
			At:   sim.Time(i) * sim.Millisecond,
			Type: cycle[i%len(cycle)],
			Cell: 2,
		})
	}
}
