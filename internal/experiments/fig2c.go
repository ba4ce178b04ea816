package experiments

import (
	"io"

	"silenttracker/internal/campaign"
	"silenttracker/internal/handover"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
)

// Fig2cSeries is one CDF curve of the paper's Fig. 2c: the time from
// the start of the neighbor search to the successful conclusion of the
// soft handover, under one mobility scenario.
type Fig2cSeries struct {
	Scenario  Scenario
	Trials    int
	Completed int          // trials whose first handover concluded
	SoftCount int          // of those, how many stayed soft
	Latency   stats.Sample // milliseconds, one point per completed trial
	Dwells    stats.Sample // beam-search dwells of the preceding search
	Interrupt stats.Sample // interruption ms (0 for clean soft handovers)
}

// Fig2cOpts configures the Fig. 2c run.
type Fig2cOpts struct {
	Trials  int
	Seed    int64
	Workers int // trial parallelism (0 = GOMAXPROCS); never changes results
}

// DefaultFig2cOpts returns the full-fidelity settings.
func DefaultFig2cOpts() Fig2cOpts {
	return Fig2cOpts{Trials: 200, Seed: 2000}
}

// Fig2cQuick returns reduced-trial options for tests and smoke runs.
func Fig2cQuick(trials int) Fig2cOpts {
	o := DefaultFig2cOpts()
	o.Trials = trials
	return o
}

// Fig2cCampaign declares Fig. 2c as a campaign spec: one axis (the
// mobility scenario), the handover trial as the unit body.
func Fig2cCampaign(opts Fig2cOpts) *campaign.Spec {
	return &campaign.Spec{
		Name:        "fig2c",
		Description: "soft handover completion time CDF per mobility scenario (narrow codebook)",
		Axes: []campaign.Axis{
			{Name: "scenario", Values: ScenarioNames()},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 104729,
		Epoch:      "fig2c/v2",
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			rec, ok := HandoverTrial(ScenarioNamed(cell.Get("scenario")), seed)
			m := campaign.NewMetrics()
			m.Record("completed", ok)
			if ok {
				m.Record("soft", rec.Kind == handover.Soft)
				m.Add("latency_ms", rec.Latency().Millis())
				m.Add("dwells", float64(rec.Dwells))
				m.Add("interrupt_ms", rec.Interruption.Millis())
			}
			return m
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteFig2c(w, Fig2cSeriesOf(cells, opts.Trials))
		},
	}
}

// Fig2cSeriesOf folds campaign cells back into the CDF series.
func Fig2cSeriesOf(cells []campaign.CellResult, trials int) []Fig2cSeries {
	out := make([]Fig2cSeries, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, Fig2cSeries{
			Scenario:  ScenarioNamed(c.Cell.Get("scenario")),
			Trials:    trials,
			Completed: c.Rate("completed").Successes,
			SoftCount: c.Rate("soft").Successes,
			Latency:   c.Sample("latency_ms"),
			Dwells:    c.Sample("dwells"),
			Interrupt: c.Sample("interrupt_ms"),
		})
	}
	return out
}

// RunFig2c regenerates the paper's Fig. 2c: per-scenario CDFs of soft
// handover completion time with the narrow (20°) codebook.
func RunFig2c(opts Fig2cOpts) []Fig2cSeries {
	return Fig2cSeriesOf(campaign.Collect(Fig2cCampaign(opts), opts.Workers), opts.Trials)
}

// HandoverTrial runs one Fig. 2c scenario instance to its first
// completed handover.
func HandoverTrial(sc Scenario, seed int64) (handover.Record, bool) {
	w := EdgeWorld(sc, Narrow, seed)
	aud := handover.NewAuditor(1, 0)
	w.Tracker.SetEventHook(aud.Hook(nil))
	horizon := HorizonFor(sc)
	for w.Engine.Now() < horizon && aud.Completed() == 0 {
		w.Run(w.Engine.Now() + 100*sim.Millisecond)
	}
	return aud.First()
}

// CompletionRate returns the fraction of trials whose handover
// concluded — the CDF's asymptote.
func (s Fig2cSeries) CompletionRate() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.Completed) / float64(s.Trials)
}

// CDF samples the series' latency ECDF on a shared grid (milliseconds)
// matching the paper's 400–1800 ms axis, scaled by the completion
// rate so incomplete trials keep the curve below 1.
func (s *Fig2cSeries) CDF(loMs, hiMs float64, points int) []stats.ECDFPoint {
	grid := s.Latency.ECDFGrid(loMs, hiMs, points)
	scale := s.CompletionRate()
	for i := range grid {
		grid[i].P *= scale
	}
	return grid
}
