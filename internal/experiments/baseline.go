package experiments

import (
	"fmt"
	"io"

	"silenttracker/internal/campaign"
	"silenttracker/internal/geom"
	"silenttracker/internal/handover"
	"silenttracker/internal/mobility"
	"silenttracker/internal/netem"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
)

// Variant names a beam-management strategy for the baseline
// comparison.
type Variant int

// The compared strategies.
const (
	// SilentTracker is the paper's protocol: silent neighbor tracking
	// begun proactively at the cell edge.
	SilentTracker Variant = iota
	// Reactive is the omnidirectional-era strategy the paper argues
	// against: do nothing until the serving link dies, then search.
	Reactive
	// Genie is the lower bound: an oracle hands the tracker the
	// neighbor's beam pair at t=0 with no search at all.
	Genie
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case SilentTracker:
		return "SilentTracker"
	case Reactive:
		return "Reactive"
	default:
		return "Genie"
	}
}

// VariantNamed parses a Variant from its String form.
func VariantNamed(name string) Variant {
	switch name {
	case "SilentTracker":
		return SilentTracker
	case "Reactive":
		return Reactive
	case "Genie":
		return Genie
	}
	panic("experiments: unknown variant " + name)
}

// BaselineRow summarises one strategy over the baseline workload.
type BaselineRow struct {
	Variant Variant
	Trials  int

	HandoverOK  stats.Rate   // first handover concluded within the horizon
	HardRate    stats.Rate   // handovers that were hard
	LatencyMs   stats.Sample // first-handover latency (search start → done)
	InterruptMs stats.Sample // total interruption per trial
	LossRate    stats.Sample // packet loss fraction per trial
	OutageMs    stats.Sample // longest outage per trial

	// RecoveryMs is the total interruption over trials that suffered at
	// least one serving-link death — the moment of truth the strategies
	// differ on: an aligned silent beam recovers in one RACH exchange,
	// a reactive mobile must search first.
	RecoveryMs stats.Sample
}

// BaselineOpts configures the comparison.
type BaselineOpts struct {
	Trials  int
	Seed    int64
	Horizon sim.Time
	Workers int // trial parallelism (0 = GOMAXPROCS); never changes results
}

// DefaultBaselineOpts returns the full comparison: the mobile walks
// out of cell 1's coverage (a 14 m soft range edge models mm-wave
// corner loss), so the serving link *permanently* dies mid-walk and
// each strategy's recovery path is what gets measured.
func DefaultBaselineOpts() BaselineOpts {
	return BaselineOpts{Trials: 40, Seed: 6000, Horizon: 8 * sim.Second}
}

// BaselineCampaign declares the strategy comparison as a campaign
// spec: one axis (the beam-management strategy), the walk-out-of-
// coverage workload as the unit body.
func BaselineCampaign(opts BaselineOpts) *campaign.Spec {
	return &campaign.Spec{
		Name:        "baseline",
		Description: "strategy comparison (SilentTracker vs Reactive vs Genie) on a coverage-exit walk",
		Axes: []campaign.Axis{
			{Name: "variant", Values: []string{"SilentTracker", "Reactive", "Genie"}},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 179426549,
		Epoch:      "baseline/v2",
		Config:     fmt.Sprintf("horizon=%d", opts.Horizon),
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			var t BaselineRow
			oneBaselineTrial(VariantNamed(cell.Get("variant")), seed, opts.Horizon, &t)
			m := campaign.NewMetrics()
			m.Record("ho_ok", t.HandoverOK.Successes > 0)
			if t.HardRate.Trials > 0 {
				m.Record("hard", t.HardRate.Successes > 0)
			}
			m.Add("latency_ms", t.LatencyMs.Raw()...)
			m.Add("interrupt_ms", t.InterruptMs.Raw()...)
			m.Add("loss_rate", t.LossRate.Raw()...)
			m.Add("outage_ms", t.OutageMs.Raw()...)
			m.Add("recovery_ms", t.RecoveryMs.Raw()...)
			return m
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteBaseline(w, BaselineRows(cells, opts.Trials))
		},
	}
}

// BaselineRows folds campaign cells back into the table's row structs.
func BaselineRows(cells []campaign.CellResult, trials int) []BaselineRow {
	out := make([]BaselineRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, BaselineRow{
			Variant:     VariantNamed(c.Cell.Get("variant")),
			Trials:      trials,
			HandoverOK:  c.Rate("ho_ok"),
			HardRate:    c.Rate("hard"),
			LatencyMs:   c.Sample("latency_ms"),
			InterruptMs: c.Sample("interrupt_ms"),
			LossRate:    c.Sample("loss_rate"),
			OutageMs:    c.Sample("outage_ms"),
			RecoveryMs:  c.Sample("recovery_ms"),
		})
	}
	return out
}

// RunBaseline regenerates the strategy comparison table.
func RunBaseline(opts BaselineOpts) []BaselineRow {
	return BaselineRows(campaign.Collect(BaselineCampaign(opts), opts.Workers), opts.Trials)
}

// RunBaselineVariant runs the baseline workload for one strategy.
func RunBaselineVariant(v Variant, opts BaselineOpts) BaselineRow {
	spec := BaselineCampaign(opts)
	spec.Axes[0].Values = []string{v.String()}
	rows := BaselineRows(campaign.Collect(spec, opts.Workers), opts.Trials)
	return rows[0]
}

func oneBaselineTrial(v Variant, seed int64, horizon sim.Time, row *BaselineRow) {
	b := EdgeBuilder(seed)
	// Walk from inside cell 1 out through its coverage edge: the
	// serving link dies for good at x ≈ 16–17 m.
	j := jitter(seed)
	b.Mob = walkFrom(j.Uniform(6.5, 7.5), j.Uniform(-0.8, 0.8), seed)
	b.Specs[0].RangeLimit = 14
	switch v {
	case SilentTracker:
		// Defaults: AlwaysSearch at the edge.
	case Reactive:
		b.Cfg.AlwaysSearch = false
		b.Cfg.EdgeRSSdBm = -300 // never search proactively
	case Genie:
		b.Cfg.AlwaysSearch = false
		b.Cfg.EdgeRSSdBm = -300
	}
	w := b.Build()
	if v == Genie {
		// The oracle hands over the neighbor's beam pair immediately.
		ci := w.Device.Cells[2]
		tx, rx := ci.Link.BestBeamsOracle(ci.Pose, w.Device.Pose(0))
		rss := w.P.Channel.MeanRSSdBm(
			ci.Pose.Pos.Dist(w.Device.Pose(0).Pos),
			ci.Book.GainDB(tx, ci.Pose.BearingTo(w.Device.Pose(0).Pos)),
			w.Device.Book.GainDB(rx, w.Device.Pose(0).LocalBearingTo(ci.Pose.Pos)),
		)
		w.Tracker.ForceTrack(0, 2, tx, rx, rss)
	}

	aud := handover.NewAuditor(1, 0)
	w.Tracker.SetEventHook(aud.Hook(nil))
	flow := netem.Attach(w, sim.Millisecond)
	for w.Engine.Now() < horizon {
		w.Run(w.Engine.Now() + 200*sim.Millisecond)
	}
	flow.Stop()

	first, ok := aud.First()
	row.HandoverOK.Record(ok)
	if ok {
		row.HardRate.Record(first.Kind == handover.Hard)
		row.LatencyMs.Add(first.Latency().Millis())
	}
	row.InterruptMs.Add(aud.TotalInterruption().Millis())
	row.LossRate.Add(flow.LossRate())
	row.OutageMs.Add(flow.LongestOutage.Millis())
	if sawServingDeath(aud) {
		row.RecoveryMs.Add(aud.TotalInterruption().Millis())
	}
}

func sawServingDeath(aud *handover.Auditor) bool {
	for _, r := range aud.Records {
		if r.Interruption > 0 {
			return true
		}
	}
	return false
}

// walkFrom builds the baseline walk at a custom start.
func walkFrom(x, y float64, seed int64) mobility.Model {
	j := jitter(seed + 1)
	return mobility.NewWalk(geom.V(x, y), j.Uniform(-0.08, 0.08), seed)
}
