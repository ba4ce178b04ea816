package experiments

import (
	"fmt"
	"io"
	"strconv"

	"silenttracker/internal/campaign"
	"silenttracker/internal/core"
	"silenttracker/internal/handover"
	"silenttracker/internal/netem"
	"silenttracker/internal/sim"
	"silenttracker/internal/stats"
	"silenttracker/internal/world"
)

// floatAxis renders knob settings as exact symbolic axis values
// (shortest round-trip formatting, parsed back by Cell.Float).
func floatAxis(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}

// ThresholdRow is one row of the handover-margin (T) ablation: the
// trade-off between ping-pong instability (T too small) and late,
// interruption-prone handover (T too large).
type ThresholdRow struct {
	MarginDB    float64
	Trials      int
	Handovers   stats.Sample // completed handovers per trial
	PingPongs   stats.Sample // ping-pongs per trial
	InterruptMs stats.Sample // total interruption per trial, ms
	LossRate    stats.Sample // packet loss fraction per trial
	NoHandover  stats.Rate   // trials that never handed over at all
}

// ThresholdOpts configures the margin sweep.
type ThresholdOpts struct {
	Margins []float64
	Trials  int
	Seed    int64
	Horizon sim.Time
	Workers int // trial parallelism (0 = GOMAXPROCS); never changes results
}

// DefaultThresholdOpts returns the full sweep.
func DefaultThresholdOpts() ThresholdOpts {
	return ThresholdOpts{
		Margins: []float64{0, 3, 6, 9},
		Trials:  40,
		Seed:    4000,
		Horizon: 12 * sim.Second,
	}
}

// ThresholdCampaign declares the handover-margin ablation as a
// campaign spec: one axis (the margin T in dB), a boundary walk with
// a packet flow attached as the unit body.
func ThresholdCampaign(opts ThresholdOpts) *campaign.Spec {
	return &campaign.Spec{
		Name:        "threshold",
		Description: "handover margin T ablation: ping-pong instability vs late, lossy handover",
		Axes: []campaign.Axis{
			{Name: "margin_db", Values: floatAxis(opts.Margins)},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 27644437,
		Epoch:      "threshold/v2",
		Config:     fmt.Sprintf("horizon=%d", opts.Horizon),
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			b := EdgeBuilder(seed)
			b.Cfg.HandoverMarginDB = cell.Float("margin_db")
			b.Mob = MobilityFor(Walk, seed)
			w := b.Build()
			aud := handover.NewAuditor(1, 0)
			w.Tracker.SetEventHook(aud.Hook(nil))
			flow := netem.Attach(w, sim.Millisecond)
			w.Run(opts.Horizon)
			flow.Stop()
			m := campaign.NewMetrics()
			m.Count("handovers", aud.Completed())
			m.Count("pingpongs", aud.PingPongs())
			m.Add("interrupt_ms", aud.TotalInterruption().Millis())
			m.Add("loss_rate", flow.LossRate())
			m.Record("no_ho", aud.Completed() == 0)
			return m
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteThreshold(w, ThresholdRows(cells, opts.Trials))
		},
	}
}

// ThresholdRows folds campaign cells back into the table's row structs.
func ThresholdRows(cells []campaign.CellResult, trials int) []ThresholdRow {
	out := make([]ThresholdRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, ThresholdRow{
			MarginDB:    c.Cell.Float("margin_db"),
			Trials:      trials,
			Handovers:   c.Sample("handovers"),
			PingPongs:   c.Sample("pingpongs"),
			InterruptMs: c.Sample("interrupt_ms"),
			LossRate:    c.Sample("loss_rate"),
			NoHandover:  c.Rate("no_ho"),
		})
	}
	return out
}

// RunThreshold regenerates the T ablation. The workload is the
// boundary walk with a packet flow attached, run long enough for the
// mobile to dwell in the crossover region.
func RunThreshold(opts ThresholdOpts) []ThresholdRow {
	return ThresholdRows(campaign.Collect(ThresholdCampaign(opts), opts.Workers), opts.Trials)
}

// HysteresisRow is one row of the adjacent-switch trigger ablation:
// the paper's 3 dB rule swept. Too sensitive → constant probing (lost
// measurement occasions, noise-chasing switches); too numb → the beam
// decays to loss before the tracker reacts.
type HysteresisRow struct {
	TriggerDB   float64
	Trials      int
	Switches    stats.Sample // H switches per trial
	Losses      stats.Sample // D losses per trial
	MisalignDeg stats.Sample // mean misalignment while tracking, degrees
	HandoverOK  stats.Rate   // first handover concluded
}

// HysteresisOpts configures the trigger sweep.
type HysteresisOpts struct {
	Triggers []float64
	Trials   int
	Seed     int64
	Workers  int // trial parallelism (0 = GOMAXPROCS); never changes results
}

// DefaultHysteresisOpts returns the full sweep. Rotation is the
// stress workload: 120°/s forces continuous re-alignment.
func DefaultHysteresisOpts() HysteresisOpts {
	return HysteresisOpts{
		Triggers: []float64{1, 3, 6, 10},
		Trials:   40,
		Seed:     5000,
	}
}

// HysteresisCampaign declares the adjacent-switch trigger ablation as
// a campaign spec: one axis (the trigger in dB), the rotation stress
// workload as the unit body.
func HysteresisCampaign(opts HysteresisOpts) *campaign.Spec {
	return &campaign.Spec{
		Name:        "hysteresis",
		Description: "adjacent-switch trigger (3 dB rule) ablation under device rotation",
		Axes: []campaign.Axis{
			{Name: "trigger_db", Values: floatAxis(opts.Triggers)},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 6700417,
		Epoch:      "hysteresis/v2",
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			b := EdgeBuilder(seed)
			b.Cfg.TrackTriggerDB = cell.Float("trigger_db")
			b.Mob = MobilityFor(Rotation, seed)
			w := b.Build()
			var t HysteresisRow
			runHysteresisTrial(w, &t)
			m := campaign.NewMetrics()
			m.Add("switches", t.Switches.Raw()...)
			m.Add("losses", t.Losses.Raw()...)
			m.Add("misalign_deg", t.MisalignDeg.Raw()...)
			m.Record("ho_ok", t.HandoverOK.Successes > 0)
			return m
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteHysteresis(w, HysteresisRows(cells, opts.Trials))
		},
	}
}

// HysteresisRows folds campaign cells back into the table's row structs.
func HysteresisRows(cells []campaign.CellResult, trials int) []HysteresisRow {
	out := make([]HysteresisRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		out = append(out, HysteresisRow{
			TriggerDB:   c.Cell.Float("trigger_db"),
			Trials:      trials,
			Switches:    c.Sample("switches"),
			Losses:      c.Sample("losses"),
			MisalignDeg: c.Sample("misalign_deg"),
			HandoverOK:  c.Rate("ho_ok"),
		})
	}
	return out
}

// RunHysteresis regenerates the 3 dB rule ablation under rotation.
func RunHysteresis(opts HysteresisOpts) []HysteresisRow {
	return HysteresisRows(campaign.Collect(HysteresisCampaign(opts), opts.Workers), opts.Trials)
}

func runHysteresisTrial(w *world.World, row *HysteresisRow) {
	tracking := false
	var trackedCell int
	done := false
	var misalign stats.Online
	w.Tracker.SetEventHook(func(e core.Event) {
		switch e.Type {
		case core.EvNeighborFound:
			tracking, trackedCell = true, e.Cell
		case core.EvNeighborLost:
			tracking = false
		case core.EvHandoverComplete:
			done = true
			tracking = false
		}
	})
	w.Engine.Every(10*sim.Millisecond, func() {
		if tracking && !done {
			if errRad := w.AlignmentError(trackedCell); errRad < 6 {
				misalign.Add(errRad * 180 / 3.141592653589793)
			}
		}
	})
	horizon := HorizonFor(Rotation)
	for w.Engine.Now() < horizon && !done {
		w.Run(w.Engine.Now() + 100*sim.Millisecond)
	}
	row.Switches.Add(float64(w.Tracker.NeighborSwitches))
	row.Losses.Add(float64(w.Tracker.NeighborLosses))
	if misalign.N() > 0 {
		row.MisalignDeg.Add(misalign.Mean())
	}
	row.HandoverOK.Record(done)
}
