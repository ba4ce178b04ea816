package experiments

import (
	"io"

	"silenttracker/internal/antenna"
	"silenttracker/internal/campaign"
	"silenttracker/internal/geom"
	"silenttracker/internal/handover"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
)

// PatternRow compares beam-pattern models: the smooth 3GPP-style
// Gaussian main lobe the experiments default to, versus a true
// uniform-linear-array factor with real side lobes and nulls. The
// protocol only ever sees RSS, so if its behaviour depended on the
// pattern's analytic form that would be a red flag for the
// reproduction; this ablation checks it does not.
type PatternRow struct {
	Model      string
	Trials     int
	Success    stats.Rate   // Fig. 2a-style search success (narrow, walk)
	Dwells     stats.Sample // search latency over successes
	HandoverOK stats.Rate   // Fig. 2c-style walk handover completion
	LatencyMs  stats.Sample
}

// PatternOpts configures the pattern-model ablation.
type PatternOpts struct {
	Trials  int
	Seed    int64
	Workers int // trial parallelism (0 = GOMAXPROCS); never changes results
}

// DefaultPatternOpts returns the full comparison.
func DefaultPatternOpts() PatternOpts { return PatternOpts{Trials: 60, Seed: 7000} }

// patternBook builds the 18-beam, 20° mobile codebook for the named
// pattern model.
func patternBook(model string) *antenna.Codebook {
	switch model {
	case "Gaussian":
		return antenna.NewRingCodebook("mobile-narrow-20", 18, geom.Deg(20), antenna.ModelGaussian)
	case "ULA":
		return antenna.NewRingCodebook("mobile-ula-20", 18, geom.Deg(20), antenna.ModelULA)
	}
	panic("experiments: unknown pattern model " + model)
}

// PatternsCampaign declares the beam-pattern-model ablation as a
// campaign spec: one axis (the pattern model), a paired search +
// handover trial as the unit body.
func PatternsCampaign(opts PatternOpts) *campaign.Spec {
	return &campaign.Spec{
		Name:        "patterns",
		Description: "beam pattern model ablation (Gaussian vs ULA): the protocol only sees RSS",
		Axes: []campaign.Axis{
			{Name: "model", Values: []string{"Gaussian", "ULA"}},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 15485863,
		Epoch:      "patterns/v2",
		Trial: func(cell campaign.Cell, seed int64) campaign.Metrics {
			model := cell.Get("model")
			sOpts := DefaultFig2aOpts()
			m := campaign.NewMetrics()
			// Search trial with the model's codebook.
			b := EdgeBuilder(seed)
			b.UEBook = patternBook(model)
			b.Mob = MobilityFor(Walk, seed)
			searchOK, dwells := searchTrialWith(b, sOpts)
			m.Record("search_ok", searchOK)
			if searchOK {
				m.Add("dwells", float64(dwells))
			}
			// Handover trial with the model's codebook.
			b2 := EdgeBuilder(seed + 1)
			b2.UEBook = patternBook(model)
			b2.Mob = MobilityFor(Walk, seed+1)
			w := b2.Build()
			aud := handover.NewAuditor(1, 0)
			w.Tracker.SetEventHook(aud.Hook(nil))
			horizon := HorizonFor(Walk)
			for w.Engine.Now() < horizon && aud.Completed() == 0 {
				w.Run(w.Engine.Now() + 100*sim.Millisecond)
			}
			rec, hoOK := aud.First()
			m.Record("ho_ok", hoOK)
			if hoOK {
				m.Add("latency_ms", rec.Latency().Millis())
			}
			return m
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WritePatterns(w, PatternRows(cells, opts.Trials))
		},
	}
}

// PatternRows folds campaign cells back into the table's row structs.
func PatternRows(cells []campaign.CellResult, trials int) []PatternRow {
	out := make([]PatternRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, PatternRow{
			Model:      c.Cell.Get("model"),
			Trials:     trials,
			Success:    c.Rate("search_ok"),
			Dwells:     c.Sample("dwells"),
			HandoverOK: c.Rate("ho_ok"),
			LatencyMs:  c.Sample("latency_ms"),
		})
	}
	return out
}

// RunPatterns regenerates the pattern-model ablation.
func RunPatterns(opts PatternOpts) []PatternRow {
	return PatternRows(campaign.Collect(PatternsCampaign(opts), opts.Workers), opts.Trials)
}
