package experiments

import (
	"fmt"
	"io"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/rng"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
	"silenttracker/internal/world"
)

// Fig2aRow is one bar group of the paper's Fig. 2a: directional
// neighbor-cell search under human walk at the cell edge, for one
// mobile codebook configuration.
type Fig2aRow struct {
	Config BeamConfig
	Trials int

	// Search success rate (right panel): the fraction of search
	// procedures that confirm a usable neighbor beam within the
	// deadline and hold it for the verification window.
	Success stats.Rate

	// Search latency in beam searches, i.e. receive-beam dwells of one
	// sweep period each (left panel), over successful searches.
	Dwells stats.Sample

	// Search latency in milliseconds (derived; one dwell = 20 ms).
	LatencyMs stats.Sample
}

// Fig2aOpts configures the Fig. 2a run.
type Fig2aOpts struct {
	Trials  int   // search procedures per configuration
	Seed    int64 // base seed
	Workers int   // trial parallelism (0 = GOMAXPROCS); never changes results

	// ScanBudget bounds one search procedure at this many complete
	// codebook sweeps (dwell budget = ScanBudget × codebook size).
	// A procedure that has swept every receive beam twice without
	// confirming a cell has failed — this is what makes "success rate"
	// comparable across codebooks of different sizes.
	ScanBudget int

	Verify sim.Time // found beam must survive this long to count
}

// DefaultFig2aOpts returns the full-fidelity settings.
func DefaultFig2aOpts() Fig2aOpts {
	return Fig2aOpts{
		Trials:     150,
		Seed:       1000,
		ScanBudget: 2,
		Verify:     100 * sim.Millisecond,
	}
}

// Fig2aCampaign declares Fig. 2a as a campaign spec: one axis (the
// mobile codebook configuration), the search trial as the unit body.
func Fig2aCampaign(opts Fig2aOpts) *campaign.Spec {
	return &campaign.Spec{
		Name:        "fig2a",
		Description: "directional neighbor search under human walk: success rate and latency per codebook",
		Axes: []campaign.Axis{
			{Name: "config", Values: []string{"Narrow", "Wide", "Omni"}},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 7919,
		Epoch:      "fig2a/v2",
		Config:     fmt.Sprintf("budget=%d,verify=%d", opts.ScanBudget, opts.Verify),
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			ok, dwells := SearchTrial(BeamConfigNamed(cell.Get("config")), seed, opts)
			m := campaign.NewMetrics()
			m.Record("ok", ok)
			if ok {
				m.Add("dwells", float64(dwells))
				m.Add("latency_ms", float64(dwells)*20)
			}
			return m
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteFig2a(w, Fig2aRows(cells, opts.Trials))
		},
	}
}

// Fig2aRows folds campaign cells back into the table's row structs.
func Fig2aRows(cells []campaign.CellResult, trials int) []Fig2aRow {
	rows := make([]Fig2aRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		rows = append(rows, Fig2aRow{
			Config:    BeamConfigNamed(c.Cell.Get("config")),
			Trials:    trials,
			Success:   c.Rate("ok"),
			Dwells:    c.Sample("dwells"),
			LatencyMs: c.Sample("latency_ms"),
		})
	}
	return rows
}

// RunFig2a regenerates both panels of Fig. 2a. Trials shard across
// the campaign engine's runner pool; rows are identical at any
// Workers value.
func RunFig2a(opts Fig2aOpts) []Fig2aRow {
	return Fig2aRows(campaign.Collect(Fig2aCampaign(opts), opts.Workers), opts.Trials)
}

// SearchTrial runs a single Fig. 2a search procedure under the
// paper's human-walk scenario and reports whether it succeeded and
// how many receive-beam dwells it took.
func SearchTrial(cfgB BeamConfig, seed int64, opts Fig2aOpts) (success bool, dwells int) {
	b := EdgeBuilder(seed)
	b.UEBook = cfgB.Book()
	b.Mob = MobilityFor(Walk, seed)
	return searchTrialWith(b, opts)
}

// searchTrialWith runs a search procedure on an already-configured
// scenario builder (shared by SearchTrial and the pattern ablation).
func searchTrialWith(b *world.Builder, opts Fig2aOpts) (success bool, dwells int) {
	w := b.Build()
	budget := opts.ScanBudget * b.UEBook.Size()
	// The dwell clock runs in sweep periods; the search itself starts
	// after the first serving burst, so pad the wall-clock deadline.
	deadline := sim.Time(budget)*w.Tracker.Cfg.SweepPeriod + 100*sim.Millisecond

	var foundAt sim.Time = sim.Never
	var lostAfter sim.Time = sim.Never
	w.Tracker.SetEventHook(func(e core.Event) {
		switch e.Type {
		case core.EvNeighborFound:
			if foundAt == sim.Never {
				foundAt = e.At
				dwells = int(e.Value)
			}
		case core.EvNeighborLost:
			if foundAt != sim.Never && lostAfter == sim.Never {
				lostAfter = e.At
			}
		}
	})

	// Run until the verification window after discovery, or the
	// deadline.
	for w.Engine.Now() < deadline+opts.Verify {
		w.Run(w.Engine.Now() + 50*sim.Millisecond)
		if foundAt != sim.Never && w.Engine.Now() >= foundAt+opts.Verify {
			break
		}
	}
	if foundAt == sim.Never || dwells > budget {
		return false, 0
	}
	// Verification: the beam must not be lost within the window —
	// a sidelobe ghost "discovery" dies immediately.
	if lostAfter != sim.Never && lostAfter-foundAt < opts.Verify {
		return false, 0
	}
	return true, dwells
}

// Fig2aQuick returns reduced-trial options for tests and smoke runs.
func Fig2aQuick(trials int) Fig2aOpts {
	o := DefaultFig2aOpts()
	o.Trials = trials
	return o
}

// ShuffledSeeds is a helper for experiments that want decorrelated
// trial seeds.
func ShuffledSeeds(base int64, n int) []int64 {
	src := rng.Stream(base, "experiments/seeds")
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Int63()
	}
	return out
}
