package experiments

import (
	"fmt"
	"io"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/geom"
	"silenttracker/internal/scenario"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
)

// HighwayRow summarises one speed of the highway family: a vehicular
// fleet driving a linear corridor of cells, measuring how long the
// silently tracked neighbor beam is held as speed grows.
type HighwayRow struct {
	SpeedMps float64
	Trials   int

	// HoldMs is the distribution of tracking-episode durations
	// (neighbor found → handover complete, neighbor lost, or horizon).
	HoldMs stats.Sample
	// Aligned: fraction of 10 ms samples within one beamwidth while
	// tracking.
	Aligned stats.Rate
	// HandoverOK: UEs that completed at least one handover.
	HandoverOK stats.Rate
	// Handovers / HardHandovers are per-UE event-count distributions;
	// their ratio is the hard share of all completed handovers.
	Handovers     stats.Sample
	HardHandovers stats.Sample
}

// HardShare returns the fraction of completed handovers that
// degenerated into hard ones.
func (r *HighwayRow) HardShare() float64 {
	return hardShare(&r.HardHandovers, &r.Handovers)
}

// HighwayOpts configures the highway family.
type HighwayOpts struct {
	Trials  int
	Seed    int64
	Workers int
	// Speeds are the vehicular speeds swept, m/s.
	Speeds []float64
}

// DefaultHighwayOpts returns the full-fidelity settings. 25 m/s is
// ~56 mph — nearly three times the paper's vehicular case.
func DefaultHighwayOpts() HighwayOpts {
	return HighwayOpts{Trials: 12, Seed: 9100, Speeds: []float64{5, 10, 15, 20, 25}}
}

// highwaySpacing is the corridor inter-site distance, meters.
const highwaySpacing = 25.0

// highwaySpec is the declarative world family: a five-cell corridor
// with a vehicular fleet spawned before the first boundary, driving
// east with small heading jitter.
func highwaySpec(speed float64) scenario.Spec {
	return scenario.Spec{
		Name:     "highway",
		Topology: scenario.LinearCorridor(5, highwaySpacing),
		Fleet: scenario.Fleet{
			Count:         10,
			Spawn:         scenario.RectRegion(geom.V(2, -2), geom.V(14, 2)),
			Mix:           scenario.Mix{Vehicular: 1},
			Heading:       0,
			HeadingJitter: 0.04,
			Speed:         speed,
		},
		Blockers:  scenario.Blockers{Density: 1},
		CellRange: 0.8 * highwaySpacing,
		Horizon:   highwayHorizon(speed),
	}
}

// highwayHorizon scales the trial window to the speed: time to cover
// two inter-site distances (two boundary crossings), bounded to keep
// slow sweeps affordable and fast ones meaningful.
func highwayHorizon(speed float64) sim.Time {
	t := 2 * highwaySpacing / speed
	if t > 12 {
		t = 12
	}
	if t < 3 {
		t = 3
	}
	return sim.Time(t * float64(sim.Second))
}

// HighwayCampaign declares the highway family as a campaign spec with
// speed as the sweep axis.
func HighwayCampaign(opts HighwayOpts) *campaign.Spec {
	values := make([]string, len(opts.Speeds))
	// The horizon depends on the swept speed, so the placeholder
	// fingerprint alone would not see highwayHorizon changes; fold the
	// realized horizon of every axis value into the config identity.
	horizons := make([]string, len(opts.Speeds))
	for i, v := range opts.Speeds {
		values[i] = fmt.Sprintf("%g", v)
		horizons[i] = fmt.Sprintf("%d", int64(highwayHorizon(v)))
	}
	return &campaign.Spec{
		Name:        "highway",
		Description: "corridor vehicular fleet: alignment hold duration vs speed",
		Axes: []campaign.Axis{
			{Name: "speed_mps", Values: values},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 31337,
		Epoch:      "highway/v2",
		Config:     fmt.Sprintf("%s horizons=%v", highwaySpec(1).Fingerprint(), horizons),
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			return highwayTrial(cell.Float("speed_mps"), seed)
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteHighway(w, HighwayRows(cells, opts.Trials))
		},
	}
}

// highwayTrial compiles and runs one fleet at one speed. The aligned
// counters accumulate across the whole fleet and are recorded once
// per trial: RateCounts folds them via Scalar, which reads a single
// observation per trial.
func highwayTrial(speed float64, seed int64) campaign.Metrics {
	dep := scenario.Compile(highwaySpec(speed), seed)
	horizon := highwayHorizon(speed)
	m := campaign.NewMetrics()
	var alignedOK, alignedN int
	for i := 0; i < dep.NumUEs(); i++ {
		w := dep.BuildUE(i)
		alignedTol := w.Device.Book.Beamwidth()

		tracking, done := false, false
		var trackedCell int
		var trackStart sim.Time
		endEpisode := func(at sim.Time) {
			if tracking {
				m.Add("hold_ms", (at - trackStart).Millis())
				tracking = false
			}
		}
		w.Tracker.SetEventHook(func(e core.Event) {
			switch e.Type {
			case core.EvNeighborFound:
				tracking, trackedCell, trackStart = true, e.Cell, e.At
			case core.EvNeighborLost:
				endEpisode(e.At)
			case core.EvHandoverComplete:
				done = true
				endEpisode(e.At)
			}
		})
		w.Engine.Every(10*sim.Millisecond, func() {
			if !tracking {
				return
			}
			errRad := w.AlignmentError(trackedCell)
			if errRad >= geom.TwoPi {
				return // no beam right now (mid-probe bookkeeping)
			}
			alignedN++
			if errRad <= alignedTol {
				alignedOK++
			}
		})
		w.Run(horizon)
		endEpisode(horizon)
		m.Record("ho_ok", done)
		m.Add("handovers", float64(w.Tracker.HandoversDone))
		m.Add("hard_handovers", float64(w.Tracker.HardHandovers))
	}
	m.Count("aligned_ok", alignedOK)
	m.Count("aligned_n", alignedN)
	return m
}

// HighwayRows folds campaign cells back into rows.
func HighwayRows(cells []campaign.CellResult, trials int) []HighwayRow {
	out := make([]HighwayRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, HighwayRow{
			SpeedMps:      c.Cell.Float("speed_mps"),
			Trials:        trials,
			HoldMs:        c.Sample("hold_ms"),
			Aligned:       c.RateCounts("aligned"),
			HandoverOK:    c.Rate("ho_ok"),
			Handovers:     c.Sample("handovers"),
			HardHandovers: c.Sample("hard_handovers"),
		})
	}
	return out
}

// WriteHighway renders the alignment-hold table.
func WriteHighway(w io.Writer, rows []HighwayRow) {
	fmt.Fprintln(w, "Highway corridor (5 cells) — silent alignment hold vs vehicular speed")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s\n",
		"speed", "hold p50", "hold p90", "aligned", "HO done", "hard/HO")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7.0f m/s %7.0f ms %7.0f ms %9.1f%% %9.1f%% %9.1f%%\n",
			r.SpeedMps, r.HoldMs.Median(), r.HoldMs.Quantile(0.9),
			r.Aligned.Percent(), r.HandoverOK.Percent(), 100*r.HardShare())
	}
}

// RunHighway regenerates the highway table.
func RunHighway(opts HighwayOpts) []HighwayRow {
	return HighwayRows(campaign.Collect(HighwayCampaign(opts), opts.Workers), opts.Trials)
}
