package experiments

import (
	"reflect"
	"testing"

	"silenttracker/internal/campaign"
	"silenttracker/internal/scenario"
)

// wholeFleetTrial is the unblocked urban trial: one compiled
// deployment, every UE run in index order into one Metrics.
func wholeFleetTrial(ues int, seed int64) campaign.Metrics {
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

// TestUrbanBlocksConcatenateToWholeFleet pins the premise of urban's
// UE-block units: every UE's world is independent of the others, so
// the blocks of one trial, concatenated in block order, are exactly
// the whole fleet's observations.
func TestUrbanBlocksConcatenateToWholeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 180 urban UEs twice")
	}
	spec := UrbanCampaign(DefaultUrbanOpts())
	seed := spec.TrialSeed(0)
	for _, cell := range spec.Cells() {
		ues := cell.Int("ues")
		t.Run(cell.String(), func(t *testing.T) {
			t.Parallel()
			nb := spec.Blocks(cell)
			if want := (ues + urbanBlock - 1) / urbanBlock; nb != want {
				t.Fatalf("%d blocks, want %d", nb, want)
			}
			got := campaign.NewMetrics()
			for b := 0; b < nb; b++ {
				got.Append(spec.Trial(cell, seed, b))
			}
			if want := wholeFleetTrial(ues, seed); !reflect.DeepEqual(got, want) {
				t.Errorf("blocks concatenate to\n%v\nwant the whole fleet's\n%v", got, want)
			}
			if n := len(got["handovers"]); n != ues {
				t.Errorf("%d handover observations, want one per UE (%d)", n, ues)
			}
		})
	}
}
