package ue

import (
	"math"
	"testing"

	"silenttracker/internal/antenna"
	"silenttracker/internal/geom"
	"silenttracker/internal/mobility"
	"silenttracker/internal/phy"
	"silenttracker/internal/sim"
)

// MeasureBurst evaluates the mobility model at the first and last
// beacon only. For every model the scenarios use, the interpolated
// poses in between must stay within 0.01° of facing and 0.1 mm of
// position of the exact ones.
func TestBurstPoseMatchesExact(t *testing.T) {
	sched := phy.NewSchedule(phy.DefaultConfig(), 3*sim.Millisecond, antenna.StandardBS(0).Size())
	last := sched.NumTx - 1
	models := func(seed int64) map[string]mobility.Model {
		start := geom.V(float64(seed%13)-6, float64(seed%7)-3)
		heading := geom.Deg(float64(seed) * 41)
		speed := 5 + float64(seed%5)*5 // 5–25 m/s
		return map[string]mobility.Model{
			"walk":     mobility.NewWalk(start, heading, seed),
			"rotation": mobility.NewRotation(start, seed),
			"vehicle":  mobility.NewVehicleSpeed(start, heading, speed, seed),
		}
	}
	var worstFacing, worstPos float64
	for seed := int64(1); seed <= 60; seed++ {
		for name, m := range models(seed) {
			for burst := sched.Offset; burst < 12*sim.Second; burst += 13 * sched.Period {
				at := func(k int) float64 { return sched.BeaconTime(burst, antenna.BeamID(k)).Seconds() }
				first, final := m.PoseAt(at(0)), m.PoseAt(at(last))
				for k := 0; k <= last; k++ {
					got, want := burstPose(first, final, k, last), m.PoseAt(at(k))
					dFacing := geom.AngleDist(got.Facing, want.Facing)
					dPos := got.Pos.Dist(want.Pos)
					worstFacing, worstPos = math.Max(worstFacing, dFacing), math.Max(worstPos, dPos)
					if dFacing > geom.Deg(0.01) || dPos > 1e-4 {
						t.Fatalf("%s seed %d burst %v beacon %d: facing off %.2e°, position off %.2e m",
							name, seed, burst, k, geom.Rad(dFacing), dPos)
					}
					if got.Facing < -math.Pi || got.Facing >= math.Pi {
						t.Fatalf("%s seed %d: facing %v outside [-π, π)", name, seed, got.Facing)
					}
				}
			}
		}
	}
	t.Logf("worst interpolation error: facing %.2e°, position %.2e mm", geom.Rad(worstFacing), 1e3*worstPos)
}

// A facing that crosses ±π inside the burst interpolates along the
// short arc, not the long way round.
func TestBurstPoseFacingWraps(t *testing.T) {
	first := geom.Pose{Facing: math.Pi - 0.01}
	final := geom.Pose{Facing: -math.Pi + 0.01}
	mid := burstPose(first, final, 1, 2)
	if geom.AngleDist(mid.Facing, math.Pi) > 1e-12 {
		t.Errorf("mid-burst facing %v, want ±π", mid.Facing)
	}
}

// The per-burst path is the kernel of every trial; it must not
// allocate once the row buffer has grown.
func TestMeasureBurstAllocFree(t *testing.T) {
	cfg := phy.DefaultConfig()
	d, ci := newTestDevice(3)
	d.Mob = mobility.NewWalk(geom.V(12, 1), math.Pi/2, 3)
	rx := d.BestRxOracle(1, 0)
	burst := ci.Sched.NextBurst(0)
	if avg := testing.AllocsPerRun(200, func() {
		d.MeasureBurst(1, burst, rx)
		burst += cfg.SweepPeriod
	}); avg != 0 {
		t.Errorf("MeasureBurst allocates %v per burst, want 0", avg)
	}
}
