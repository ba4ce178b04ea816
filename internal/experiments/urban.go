package experiments

import (
	"fmt"
	"io"

	"silenttracker/internal/campaign"
	"silenttracker/internal/geom"
	"silenttracker/internal/scenario"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
)

// UrbanRow summarises one fleet size of the urban family: a hex-grid
// deployment with a mixed pedestrian/rotation/vehicular fleet, the
// dense-deployment regime where handover storms happen and silent
// neighbor alignment matters most.
type UrbanRow struct {
	UEs    int
	Trials int

	// Handovers is the per-UE completed-handover count distribution.
	Handovers stats.Sample
	// HandoverOK: UEs that completed at least one handover.
	HandoverOK stats.Rate
	// HardHandovers is the per-UE hard-handover count distribution;
	// hard events are a subset of completed handovers (the serving
	// link died before the soft path finished).
	HardHandovers stats.Sample
	// NeighborShare: per-UE fraction of measurement occasions spent on
	// neighbor cells (the "minimal resource usage" claim at scale).
	NeighborShare stats.Sample
	// HorizonS is the trial horizon, for the storm-rate column.
	HorizonS float64
}

// StormRate returns completed handovers per UE per minute.
func (r *UrbanRow) StormRate() float64 {
	if r.HorizonS == 0 {
		return 0
	}
	return r.Handovers.Mean() * 60 / r.HorizonS
}

// HardShare returns the fraction of completed handovers that
// degenerated into hard ones (0 with no handovers).
func (r *UrbanRow) HardShare() float64 {
	return hardShare(&r.HardHandovers, &r.Handovers)
}

// hardShare divides total hard events by total completed handovers.
func hardShare(hard, done *stats.Sample) float64 {
	var h, d float64
	for _, v := range hard.Raw() {
		h += v
	}
	for _, v := range done.Raw() {
		d += v
	}
	if d == 0 {
		return 0
	}
	return h / d
}

// UrbanOpts configures the urban family.
type UrbanOpts struct {
	Trials  int
	Seed    int64
	Workers int
	// UEs are the fleet sizes swept.
	UEs []int
}

// DefaultUrbanOpts returns the full-fidelity settings.
func DefaultUrbanOpts() UrbanOpts {
	return UrbanOpts{Trials: 12, Seed: 9000, UEs: []int{20, 60, 100}}
}

// urbanHorizon is the trial window; long enough for walkers crossing
// a sector boundary of the 20 m grid to complete a handover.
const urbanHorizon = 8 * sim.Second

// urbanSpec is the declarative world family: a radius-1 hex grid
// (7 cells) with a mixed fleet spawned across the central two rings.
func urbanSpec(ues int) scenario.Spec {
	const spacing = 20.0
	return scenario.Spec{
		Name:     "urban",
		Topology: scenario.HexGrid(1, spacing),
		Fleet: scenario.Fleet{
			Count: ues,
			Spawn: scenario.AnnulusRegion(geom.V(0, 0), 4, 0.8*spacing),
			Mix:   scenario.Mix{Walk: 0.6, Rotation: 0.2, Vehicular: 0.2},
			// Uniform headings: an urban crowd goes everywhere.
			HeadingJitter: geom.TwoPi,
		},
		Blockers:  scenario.Blockers{Density: 1},
		CellRange: 0.9 * spacing,
		Horizon:   urbanHorizon,
	}
}

// UrbanCampaign declares the urban family as a campaign spec with the
// fleet size as the sweep axis.
func UrbanCampaign(opts UrbanOpts) *campaign.Spec {
	values := make([]string, len(opts.UEs))
	for i, n := range opts.UEs {
		values[i] = fmt.Sprintf("%d", n)
	}
	return &campaign.Spec{
		Name:        "urban",
		Description: "hex-grid fleet sweep: handover storms under mixed urban mobility",
		Axes: []campaign.Axis{
			{Name: "ues", Values: values},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 31337,
		Epoch:      "urban/v2",
		Config:     urbanSpec(1).Fingerprint(),
		Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
			return urbanTrial(cell.Int("ues"), seed)
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteUrban(w, UrbanRows(cells, opts.Trials))
		},
	}
}

// urbanTrial compiles and runs one fleet; each UE contributes one
// observation per metric, appended in UE index order so folds are
// deterministic.
func urbanTrial(ues int, seed int64) campaign.Metrics {
	dep := scenario.Compile(urbanSpec(ues), seed)
	m := campaign.NewMetrics()
	for i := 0; i < dep.NumUEs(); i++ {
		w := dep.BuildUE(i)
		w.Run(urbanHorizon)
		m.Add("handovers", float64(w.Tracker.HandoversDone))
		m.Record("ho_ok", w.Tracker.HandoversDone > 0)
		m.Add("hard_handovers", float64(w.Tracker.HardHandovers))
		if total := w.ServingListens + w.NeighborListens; total > 0 {
			m.Add("neighbor_share", float64(w.NeighborListens)/float64(total))
		}
	}
	return m
}

// UrbanRows folds campaign cells back into rows.
func UrbanRows(cells []campaign.CellResult, trials int) []UrbanRow {
	out := make([]UrbanRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, UrbanRow{
			UEs:           c.Cell.Int("ues"),
			Trials:        trials,
			Handovers:     c.Sample("handovers"),
			HandoverOK:    c.Rate("ho_ok"),
			HardHandovers: c.Sample("hard_handovers"),
			NeighborShare: c.Sample("neighbor_share"),
			HorizonS:      urbanHorizon.Seconds(),
		})
	}
	return out
}

// WriteUrban renders the handover-storm table.
func WriteUrban(w io.Writer, rows []UrbanRow) {
	fmt.Fprintln(w, "Urban hex grid (7 cells) — handover storms under a mixed fleet")
	fmt.Fprintf(w, "%-6s %10s %12s %10s %10s %14s\n",
		"UEs", "HO done", "HO/UE/min", "HO p90", "hard/HO", "nbr occupancy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %9.1f%% %12.2f %10.1f %9.1f%% %13.1f%%\n",
			r.UEs, r.HandoverOK.Percent(), r.StormRate(),
			r.Handovers.Quantile(0.9), 100*r.HardShare(),
			100*r.NeighborShare.Mean())
	}
}

// RunUrban regenerates the urban table.
func RunUrban(opts UrbanOpts) []UrbanRow {
	return UrbanRows(campaign.Collect(UrbanCampaign(opts), opts.Workers), opts.Trials)
}
