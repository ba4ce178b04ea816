package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"silenttracker/internal/geom"
)

func TestStatic(t *testing.T) {
	s := Static{Pos: geom.V(1, 2), Facing: 0.5}
	for _, tm := range []float64{0, 1, 100} {
		if s.PoseAt(tm) != geom.Pose(s) {
			t.Fatal("static pose moved")
		}
	}
}

func TestWalkSpeed(t *testing.T) {
	w := NewWalk(geom.V(0, 0), 0, 1)
	p0, p10 := w.PoseAt(0), w.PoseAt(10)
	d := p0.Pos.Dist(p10.Pos)
	// 14 m along-track, plus sub-0.2 m lateral weave.
	if math.Abs(d-14) > 0.5 {
		t.Errorf("walk covered %v m in 10 s, want ~14", d)
	}
}

func TestWalkFacingSwayBounded(t *testing.T) {
	w := NewWalk(geom.V(0, 0), geom.Deg(30), 2)
	for tm := 0.0; tm < 20; tm += 0.05 {
		dev := geom.AngleDist(w.PoseAt(tm).Facing, geom.Deg(30))
		if dev > geom.Deg(15) {
			t.Fatalf("facing sway %v° too large at t=%v", geom.Rad(dev), tm)
		}
	}
}

func TestWalkDeterministic(t *testing.T) {
	a := NewWalk(geom.V(0, 0), 0, 7)
	b := NewWalk(geom.V(0, 0), 0, 7)
	for tm := 0.0; tm < 5; tm += 0.3 {
		if a.PoseAt(tm) != b.PoseAt(tm) {
			t.Fatal("same-seed walks diverged")
		}
	}
	c := NewWalk(geom.V(0, 0), 0, 8)
	same := true
	for tm := 0.5; tm < 5; tm += 0.3 {
		if a.PoseAt(tm) != c.PoseAt(tm) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sway")
	}
}

func TestRotationRate(t *testing.T) {
	r := NewRotation(geom.V(3, 4), 1)
	if r.PoseAt(5).Pos != geom.V(3, 4) {
		t.Error("rotation moved position")
	}
	// Average rate over 3 s should be ~120°/s (jitter averages out).
	f0 := r.PoseAt(0).Facing
	f3 := r.PoseAt(3).Facing
	// 3 s at 120°/s = 360°: facing returns near start.
	if geom.AngleDist(f0, f3) > geom.Deg(6) {
		t.Errorf("after full revolution facing off by %v°", geom.Rad(geom.AngleDist(f0, f3)))
	}
	// Quarter second = 30°.
	f := geom.AngleDist(r.PoseAt(0.25).Facing, geom.WrapAngle(f0+geom.Deg(30)))
	if f > geom.Deg(5) {
		t.Errorf("quarter-second rotation off by %v°", geom.Rad(f))
	}
}

func TestVehicleSpeed(t *testing.T) {
	v := NewVehicle(geom.V(0, 0), math.Pi/2, 3)
	d := v.PoseAt(0).Pos.Dist(v.PoseAt(2).Pos)
	if math.Abs(d-2*VehicularSpeed) > 0.01 {
		t.Errorf("vehicle covered %v m in 2 s, want %v", d, 2*VehicularSpeed)
	}
	// 20 mph constant check.
	if math.Abs(VehicularSpeed-8.9408) > 1e-6 {
		t.Errorf("VehicularSpeed = %v", VehicularSpeed)
	}
}

func TestVehicleHeadingStable(t *testing.T) {
	v := NewVehicle(geom.V(0, 0), geom.Deg(45), 4)
	for tm := 0.0; tm < 10; tm += 0.1 {
		if geom.AngleDist(v.PoseAt(tm).Facing, geom.Deg(45)) > geom.Deg(4) {
			t.Fatal("vehicle heading jitter too large")
		}
	}
}

func TestAngularRateOrdering(t *testing.T) {
	// Rotation at 120°/s stresses tracking far more than walking past a
	// BS 10 m away (1.4/10 rad/s ≈ 8°/s), which exceeds vehicular at
	// 50 m. This ordering is why the paper's three scenarios matter.
	target := geom.V(0, 10)
	walk := NewWalk(geom.V(-5, 0), 0, 1)
	rot := NewRotation(geom.V(0, 0), 1)
	rateWalk := math.Abs(angularRateTo(walk, target, 3.5))
	rateRot := math.Abs(angularRateTo(rot, target, 3.5))
	if rateRot <= rateWalk {
		t.Errorf("rotation rate %v should exceed walk rate %v", rateRot, rateWalk)
	}
	if rateRot < geom.Deg(100) || rateRot > geom.Deg(140) {
		t.Errorf("rotation angular rate = %v°/s, want ~120", geom.Rad(rateRot))
	}
}

func TestPureFunctionProperty(t *testing.T) {
	// Sampling out of order must give identical results to in-order.
	w := NewWalk(geom.V(0, 0), 0, 9)
	f := func(t1, t2 float64) bool {
		t1, t2 = math.Abs(math.Mod(t1, 30)), math.Abs(math.Mod(t2, 30))
		a1 := w.PoseAt(t1)
		_ = w.PoseAt(t2)
		a2 := w.PoseAt(t1)
		return a1 == a2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// angularRateTo estimates the rate (rad/s) at which the body-frame
// bearing from the mobile to a fixed target changes at time t — the
// quantity that stresses beam tracking. Computed by finite difference.
func angularRateTo(m Model, target geom.Vec, t float64) float64 {
	const dt = 1e-3
	a := m.PoseAt(t).LocalBearingTo(target)
	b := m.PoseAt(t + dt).LocalBearingTo(target)
	return geom.WrapAngle(b-a) / dt
}

// The heading's sine and cosine are evaluated once at construction;
// PoseAt must give the same bits as the geom.FromPolar form it
// replaced.
func TestCachedHeadingBitExact(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		heading := geom.Deg(float64(seed) * 37.3)
		start := geom.V(float64(seed), -2*float64(seed))
		w := NewWalk(start, heading, seed)
		v := NewVehicleSpeed(start, heading, 5+float64(seed), seed)
		for tm := 0.0; tm < 30; tm += 0.0173 {
			along := geom.FromPolar(w.Speed*tm, w.Heading)
			lateral := geom.FromPolar(w.latSway.at(tm), w.Heading+math.Pi/2)
			want := geom.Pose{
				Pos:    w.Start.Add(along).Add(lateral),
				Facing: geom.WrapAngle(w.Heading + w.faceSway.at(tm)),
			}
			if got := w.PoseAt(tm); got != want {
				t.Fatalf("walk seed %d t=%v: %+v, want %+v", seed, tm, got, want)
			}
			wantV := geom.Pose{
				Pos:    v.Start.Add(geom.FromPolar(v.Speed*tm, v.Heading)),
				Facing: geom.WrapAngle(v.Heading + v.jitter.at(tm)),
			}
			if got := v.PoseAt(tm); got != wantV {
				t.Fatalf("vehicle seed %d t=%v: %+v, want %+v", seed, tm, got, wantV)
			}
		}
	}
}
