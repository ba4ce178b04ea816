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

// HotspotRow summarises one blocker density of the hotspot family: a
// ring of cells around a crowded area, measuring whether silent
// tracking survives as the blockage rate grows.
type HotspotRow struct {
	Density float64
	Trials  int

	// TrackOK: tracking episodes that ended in a completed handover or
	// were still holding alignment at the horizon — i.e. the silent
	// track was never lost.
	TrackOK stats.Rate
	// LossesPerUE is the per-UE neighbor-lost count distribution.
	LossesPerUE stats.Sample
	// HandoverOK: UEs that completed at least one handover.
	HandoverOK stats.Rate
	// Handovers / HardHandovers are per-UE event-count distributions;
	// their ratio is the hard share of all completed handovers.
	Handovers     stats.Sample
	HardHandovers stats.Sample
}

// HardShare returns the fraction of completed handovers that
// degenerated into hard ones.
func (r *HotspotRow) HardShare() float64 {
	return hardShare(&r.HardHandovers, &r.Handovers)
}

// HotspotOpts configures the hotspot family.
type HotspotOpts struct {
	Trials  int
	Seed    int64
	Workers int
	// Densities are the blocker-field densities swept (1 = the
	// calibrated default blockage rate, 0 = none).
	Densities []float64
}

// DefaultHotspotOpts returns the full-fidelity settings.
func DefaultHotspotOpts() HotspotOpts {
	return HotspotOpts{Trials: 12, Seed: 9200, Densities: []float64{0, 0.5, 1, 2, 4}}
}

// hotspotHorizon is the trial window.
const hotspotHorizon = 8 * sim.Second

// hotspotSpec is the declarative world family: six cells ringed
// around a hotspot, a pedestrian-heavy fleet spawned between the
// centre and the ring, and a blocker field of the given density.
func hotspotSpec(density float64) scenario.Spec {
	const ringRadius = 14.0
	return scenario.Spec{
		Name:     "hotspot",
		Topology: scenario.Ring(6, ringRadius),
		Fleet: scenario.Fleet{
			Count:         8,
			Spawn:         scenario.AnnulusRegion(geom.V(0, 0), 5, ringRadius-2),
			Mix:           scenario.Mix{Walk: 0.75, Rotation: 0.25},
			HeadingJitter: geom.TwoPi,
		},
		Blockers:  scenario.Blockers{Density: density},
		CellRange: 1.3 * ringRadius,
		Horizon:   hotspotHorizon,
	}
}

// HotspotCampaign declares the hotspot family as a campaign spec with
// blocker density as the sweep axis.
func HotspotCampaign(opts HotspotOpts) *campaign.Spec {
	values := make([]string, len(opts.Densities))
	for i, v := range opts.Densities {
		values[i] = fmt.Sprintf("%g", v)
	}
	return &campaign.Spec{
		Name:        "hotspot",
		Description: "ring of cells + dense blockers: silent-tracking success under blockage",
		Axes: []campaign.Axis{
			{Name: "density", Values: values},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 31337,
		Epoch:      "hotspot/v2",
		Config:     hotspotSpec(1).Fingerprint(),
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			return hotspotTrial(cell.Float("density"), seed)
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteHotspot(w, HotspotRows(cells, opts.Trials))
		},
	}
}

// hotspotTrial compiles and runs one fleet at one blocker density.
func hotspotTrial(density float64, seed int64) campaign.Metrics {
	dep := scenario.Compile(hotspotSpec(density), seed)
	m := campaign.NewMetrics()
	for i := 0; i < dep.NumUEs(); i++ {
		w := dep.BuildUE(i)
		tracking, done := false, false
		losses := 0
		w.Tracker.SetEventHook(func(e core.Event) {
			switch e.Type {
			case core.EvNeighborFound:
				tracking = true
			case core.EvNeighborLost:
				losses++
				if tracking {
					m.Record("track_ok", false)
					tracking = false
				}
			case core.EvHandoverComplete:
				done = true
				if tracking {
					m.Record("track_ok", true)
					tracking = false
				}
			}
		})
		w.Run(hotspotHorizon)
		if tracking {
			// Still silently aligned when the window closed: a held
			// track, not a lost one.
			m.Record("track_ok", true)
		}
		m.Count("losses", losses)
		m.Record("ho_ok", done)
		m.Add("handovers", float64(w.Tracker.HandoversDone))
		m.Add("hard_handovers", float64(w.Tracker.HardHandovers))
	}
	return m
}

// HotspotRows folds campaign cells back into rows.
func HotspotRows(cells []campaign.CellResult, trials int) []HotspotRow {
	out := make([]HotspotRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, HotspotRow{
			Density:       c.Cell.Float("density"),
			Trials:        trials,
			TrackOK:       c.Rate("track_ok"),
			LossesPerUE:   c.Sample("losses"),
			HandoverOK:    c.Rate("ho_ok"),
			Handovers:     c.Sample("handovers"),
			HardHandovers: c.Sample("hard_handovers"),
		})
	}
	return out
}

// WriteHotspot renders the blockage-survival table.
func WriteHotspot(w io.Writer, rows []HotspotRow) {
	fmt.Fprintln(w, "Hotspot ring (6 cells) — silent tracking under a blocker field")
	fmt.Fprintf(w, "%-9s %10s %12s %10s %10s\n",
		"density", "track OK", "losses/UE", "HO done", "hard/HO")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9.1f %9.1f%% %12.2f %9.1f%% %9.1f%%\n",
			r.Density, r.TrackOK.Percent(), r.LossesPerUE.Mean(),
			r.HandoverOK.Percent(), 100*r.HardShare())
	}
}

// RunHotspot regenerates the hotspot table.
func RunHotspot(opts HotspotOpts) []HotspotRow {
	return HotspotRows(campaign.Collect(HotspotCampaign(opts), opts.Workers), opts.Trials)
}
