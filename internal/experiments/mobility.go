package experiments

import (
	"io"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/geom"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
)

// MobilityRow quantifies the paper's §3 claim — "Silent Tracker
// maintains the mobile's receive beam aligned to the potential target
// base station's transmit beam till the successful conclusion of
// handover" — for one mobility scenario.
type MobilityRow struct {
	Scenario Scenario
	Trials   int

	// AlignedFrac: fraction of 10 ms samples between neighbor
	// discovery and handover completion where the tracked receive
	// beam's boresight was within one beamwidth of the true bearing —
	// i.e. the beam still delivers useful gain and the 3 dB rule can
	// recover with a single adjacent switch.
	AlignedFrac stats.Rate

	// MisalignDeg: angular error (degrees) over the same samples.
	MisalignDeg stats.Sample

	// HandoverRate: trials whose first handover concluded.
	HandoverRate stats.Rate

	// HardRate: trials that degenerated into a hard handover.
	HardRate stats.Rate
}

// MobilityOpts configures the alignment study.
type MobilityOpts struct {
	Trials  int
	Seed    int64
	Workers int // trial parallelism (0 = GOMAXPROCS); never changes results
}

// DefaultMobilityOpts returns the full-fidelity settings.
func DefaultMobilityOpts() MobilityOpts { return MobilityOpts{Trials: 60, Seed: 3000} }

// MobilityCampaign declares the alignment study as a campaign spec.
// Per-10 ms alignment records are carried as pre-aggregated counter
// pairs plus the raw misalignment series, so folding cached trials
// reproduces the serial accumulation exactly.
func MobilityCampaign(opts MobilityOpts) *campaign.Spec {
	return &campaign.Spec{
		Name:        "mobility",
		Description: "alignment held until handover conclusion, per mobility scenario (§3 claim)",
		Axes: []campaign.Axis{
			{Name: "scenario", Values: ScenarioNames()},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 31337,
		Epoch:      "mobility/v2",
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			var t MobilityRow
			oneAlignmentTrial(ScenarioNamed(cell.Get("scenario")), seed, &t)
			m := campaign.NewMetrics()
			m.Count("aligned_ok", t.AlignedFrac.Successes)
			m.Count("aligned_n", t.AlignedFrac.Trials)
			m.Add("misalign_deg", t.MisalignDeg.Raw()...)
			m.Record("ho_done", t.HandoverRate.Successes > 0)
			m.Record("hard", t.HardRate.Successes > 0)
			return m
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteMobility(w, MobilityRows(cells, opts.Trials))
		},
	}
}

// MobilityRows folds campaign cells back into the table's row structs.
func MobilityRows(cells []campaign.CellResult, trials int) []MobilityRow {
	out := make([]MobilityRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, MobilityRow{
			Scenario:     ScenarioNamed(c.Cell.Get("scenario")),
			Trials:       trials,
			AlignedFrac:  c.RateCounts("aligned"),
			MisalignDeg:  c.Sample("misalign_deg"),
			HandoverRate: c.Rate("ho_done"),
			HardRate:     c.Rate("hard"),
		})
	}
	return out
}

// RunMobility regenerates the alignment-held table.
func RunMobility(opts MobilityOpts) []MobilityRow {
	return MobilityRows(campaign.Collect(MobilityCampaign(opts), opts.Workers), opts.Trials)
}

func oneAlignmentTrial(sc Scenario, seed int64, row *MobilityRow) {
	w := EdgeWorld(sc, Narrow, seed)
	alignedTol := w.Device.Book.Beamwidth()

	tracking := false
	var trackedCell int
	done := false
	hard := false
	w.Tracker.SetEventHook(func(e core.Event) {
		switch e.Type {
		case core.EvNeighborFound:
			tracking, trackedCell = true, e.Cell
		case core.EvNeighborLost:
			tracking = false
		case core.EvHardHandover:
			hard = true
		case core.EvHandoverComplete:
			done = true
			tracking = false
		}
	})

	// Sample alignment every 10 ms while the neighbor beam is held.
	w.Engine.Every(10*sim.Millisecond, func() {
		if !tracking || done {
			return
		}
		errRad := w.AlignmentError(trackedCell)
		if errRad >= geom.TwoPi {
			return // no beam right now (mid-probe bookkeeping)
		}
		row.MisalignDeg.Add(geom.Rad(errRad))
		row.AlignedFrac.Record(errRad <= alignedTol)
	})

	horizon := HorizonFor(sc)
	for w.Engine.Now() < horizon && !done {
		w.Run(w.Engine.Now() + 100*sim.Millisecond)
	}
	row.HandoverRate.Record(done)
	row.HardRate.Record(hard)
}
