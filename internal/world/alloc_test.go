package world

import (
	"math"
	"testing"

	"silenttracker/internal/geom"
	"silenttracker/internal/mobility"
	"silenttracker/internal/sim"
)

// The periodic machinery re-arms every cell's burst and RACH handlers
// each period. The handlers are bound once, so a stretch of simulated
// time in which every burst and RACH occasion fires (and the cells'
// housekeeping ticks) allocates nothing. The RF chain is held busy so
// the stretch isolates the events themselves; the measurement a heard
// burst triggers is pinned by the ue package.
func TestPeriodicEventsAllocFree(t *testing.T) {
	b := NewBuilder(5)
	b.Mob = mobility.NewWalk(geom.V(3, 0.5), 0, 5)
	b.ServingCell = 1
	b.AddCell(CellSpec{ID: 1, Pos: geom.V(0, 0), Facing: 0, NoBlockage: true})
	b.AddCell(CellSpec{ID: 2, Pos: geom.V(40, 0), Facing: math.Pi, BurstOffset: 10 * sim.Millisecond, NoBlockage: true})
	w := b.Build()
	w.Run(207 * sim.Millisecond) // between bursts: the radio is free
	if !w.Device.Reserve(w.Engine.Now(), sim.Never) {
		t.Fatal("could not hold the radio")
	}
	fired, skipped := w.Engine.Fired(), w.SkippedBursts
	step := w.P.Phy.SweepPeriod
	const runs = 50
	if avg := testing.AllocsPerRun(runs, func() {
		w.Run(w.Engine.Now() + step)
	}); avg != 0 {
		t.Errorf("one sweep period of periodic events allocates %v, want 0", avg)
	}
	// Two cells' bursts and RACH occasions every period, plus ticks.
	if n := w.Engine.Fired() - fired; n < 4*runs {
		t.Errorf("only %d events fired over %d periods", n, runs)
	}
	// The serving cell's bursts reach arbitration and lose the radio.
	if n := w.SkippedBursts - skipped; n < runs {
		t.Errorf("only %d serving bursts arbitrated over %d periods", n, runs)
	}
}
