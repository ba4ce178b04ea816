package phy

import (
	"math"
	"testing"
	"testing/quick"

	"silenttracker/internal/antenna"
	"silenttracker/internal/channel"
	"silenttracker/internal/geom"
	"silenttracker/internal/rng"
	"silenttracker/internal/sim"
)

func testLink(t *testing.T, seed int64) *AirLink {
	t.Helper()
	cfg := DefaultConfig()
	ch := channel.NewLinkNoBlockage(channel.DefaultParams(), seed, "t")
	return NewAirLink(cfg, 1, antenna.StandardBS(0), antenna.NarrowMobile(), ch, seed, "t")
}

func TestScheduleNextBurst(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSchedule(cfg, 5*sim.Millisecond, 16)
	cases := []struct{ t, want sim.Time }{
		{0, 5 * sim.Millisecond},
		{5 * sim.Millisecond, 5 * sim.Millisecond},
		{6 * sim.Millisecond, 25 * sim.Millisecond},
		{25 * sim.Millisecond, 25 * sim.Millisecond},
		{46 * sim.Millisecond, 65 * sim.Millisecond},
	}
	for _, c := range cases {
		if got := s.NextBurst(c.t); got != c.want {
			t.Errorf("NextBurst(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestNextBurstProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(off, at int64) bool {
		s := NewSchedule(cfg, sim.Time(off%int64(cfg.SweepPeriod)), 16)
		tm := sim.Time(at % int64(10*sim.Second))
		if tm < 0 {
			tm = -tm
		}
		nb := s.NextBurst(tm)
		if nb < tm {
			return false
		}
		// Burst start must be congruent to the offset mod period.
		return (nb-s.Offset)%s.Period == 0 && nb-tm < s.Period
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestScheduleNegativeOffsetNormalized(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSchedule(cfg, -3*sim.Millisecond, 8)
	if s.Offset < 0 || s.Offset >= s.Period {
		t.Errorf("offset not normalised: %v", s.Offset)
	}
}

func TestBeaconTimeWithinBurst(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSchedule(cfg, 0, 16)
	start := s.NextBurst(0)
	for b := 0; b < 16; b++ {
		bt := s.BeaconTime(start, antenna.BeamID(b))
		if bt < start || bt >= s.BurstEnd(start) {
			t.Errorf("beacon %d at %v outside burst [%v, %v)", b, bt, start, s.BurstEnd(start))
		}
	}
}

func TestBurstDuration(t *testing.T) {
	cfg := DefaultConfig()
	if d := cfg.BurstDuration(16); d != 4*sim.Millisecond {
		t.Errorf("burst duration = %v, want 4ms", d)
	}
}

func TestOverlapDetection(t *testing.T) {
	cfg := DefaultConfig()
	a := NewSchedule(cfg, 0, 16)                  // [0, 4ms)
	b := NewSchedule(cfg, 2*sim.Millisecond, 16)  // [2, 6ms)
	c := NewSchedule(cfg, 10*sim.Millisecond, 16) // [10, 14ms)
	d := NewSchedule(cfg, 18*sim.Millisecond, 16) // [18, 22ms) wraps
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlapping schedules not detected")
	}
	if a.Overlaps(c) {
		t.Error("disjoint schedules flagged as overlapping")
	}
	if !d.Overlaps(a) {
		t.Error("wrap-around overlap not detected")
	}
}

func TestMeasurementAlignedVsMisaligned(t *testing.T) {
	l := testLink(t, 1)
	bs := geom.Pose{Pos: geom.V(0, 0), Facing: 0}
	ue := geom.Pose{Pos: geom.V(20, 0), Facing: 0}
	txBest, rxBest := l.BestBeamsOracle(bs, ue)
	var alignedSum, misalignedSum float64
	const n = 500
	for i := 0; i < n; i++ {
		tm := sim.Time(i) * 20 * sim.Millisecond
		alignedSum += l.Measure(tm, bs, ue, txBest, rxBest).RSSdBm
		// Worst-case rx beam: opposite direction.
		worst := antenna.BeamID((int(rxBest) + l.UE.Size()/2) % l.UE.Size())
		misalignedSum += l.Measure(tm, bs, ue, txBest, worst).RSSdBm
	}
	gap := (alignedSum - misalignedSum) / n
	if gap < 15 {
		t.Errorf("aligned-vs-misaligned gap = %v dB, want >15", gap)
	}
}

func TestAlignedBeaconDetectable(t *testing.T) {
	l := testLink(t, 2)
	bs := geom.Pose{Pos: geom.V(0, 0), Facing: 0}
	ue := geom.Pose{Pos: geom.V(30, 0), Facing: math.Pi}
	tx, rx := l.BestBeamsOracle(bs, ue)
	detected := 0
	const n = 200
	for i := 0; i < n; i++ {
		m := l.Measure(sim.Time(i)*20*sim.Millisecond, bs, ue, tx, rx)
		if m.Detected {
			detected++
		}
	}
	if detected < n*95/100 {
		t.Errorf("aligned beacon at 30 m detected only %d/%d", detected, n)
	}
}

func TestOracleMatchesGeometry(t *testing.T) {
	l := testLink(t, 3)
	bs := geom.Pose{Pos: geom.V(0, 0), Facing: 0}
	// UE due east of BS, facing north: the BS lies to the west, which
	// is +90° counter-clockwise in the body frame.
	ue := geom.Pose{Pos: geom.V(25, 0), Facing: math.Pi / 2}
	tx, rx := l.BestBeamsOracle(bs, ue)
	if got := l.BS.Boresight(tx); geom.AngleDist(got, 0) > l.BS.Beamwidth() {
		t.Errorf("oracle tx boresight %v° not toward UE", geom.Rad(got))
	}
	if got := l.UE.Boresight(rx); geom.AngleDist(got, math.Pi/2) > l.UE.Beamwidth() {
		t.Errorf("oracle rx boresight %v° not toward BS", geom.Rad(got))
	}
}

func TestSyncErrorShrinksWithSNR(t *testing.T) {
	l := testLink(t, 4)
	spread := func(snr float64) float64 {
		var s float64
		for i := 0; i < 2000; i++ {
			e := l.SyncError(snr)
			s += e * e
		}
		return math.Sqrt(s / 2000)
	}
	low, high := spread(0), spread(20)
	if high >= low {
		t.Errorf("sync error should shrink with SNR: rms(0dB)=%v rms(20dB)=%v", low, high)
	}
	// At 0 dB, error std is the configured sigma.
	if math.Abs(low-l.Cfg.SyncSigma) > l.Cfg.SyncSigma/2 {
		t.Errorf("sync error at 0 dB = %v, want ~%v", low, l.Cfg.SyncSigma)
	}
}

func TestPreambleDetectionCurve(t *testing.T) {
	l := testLink(t, 5)
	rate := func(snr float64) float64 {
		hits := 0
		for i := 0; i < 2000; i++ {
			if l.PreambleDetected(snr) {
				hits++
			}
		}
		return float64(hits) / 2000
	}
	if r := rate(l.Cfg.RACHSNRdB + 5); r < 0.99 {
		t.Errorf("well-above-threshold detection = %v", r)
	}
	if r := rate(l.Cfg.RACHSNRdB - 5); r > 0.01 {
		t.Errorf("well-below-threshold detection = %v", r)
	}
	mid := rate(l.Cfg.RACHSNRdB)
	if mid < 0.4 || mid > 0.6 {
		t.Errorf("at-threshold detection = %v, want ~0.5", mid)
	}
}

func TestMeasurementString(t *testing.T) {
	m := Measurement{Cell: 2, TxBeam: 3, RxBeam: 4, RSSdBm: -50.12, SNRdB: 23.9, Detected: true}
	if s := m.String(); s == "" {
		t.Error("empty measurement string")
	}
}

func TestRotationChangesRxGainNotTxGain(t *testing.T) {
	// Device rotation must change the local bearing (hence rx beam
	// choice) while leaving the BS-side geometry untouched.
	l := testLink(t, 6)
	bs := geom.Pose{Pos: geom.V(0, 0), Facing: 0}
	ue0 := geom.Pose{Pos: geom.V(20, 0), Facing: 0}
	ue90 := geom.Pose{Pos: geom.V(20, 0), Facing: math.Pi / 2}
	tx0, rx0 := l.BestBeamsOracle(bs, ue0)
	tx90, rx90 := l.BestBeamsOracle(bs, ue90)
	if tx0 != tx90 {
		t.Errorf("tx beam changed under pure rotation: %d vs %d", tx0, tx90)
	}
	if rx0 == rx90 {
		t.Error("rx beam unchanged under 90° rotation")
	}
}

func TestMeasureUplinkReciprocity(t *testing.T) {
	l := testLink(t, 7)
	bs := geom.Pose{Pos: geom.V(0, 0), Facing: 0}
	ue := geom.Pose{Pos: geom.V(15, 0), Facing: math.Pi}
	tx, rx := l.BestBeamsOracle(bs, ue)
	var down, up float64
	const n = 400
	for i := 0; i < n; i++ {
		tm := sim.Time(i) * 20 * sim.Millisecond
		down += l.Measure(tm, bs, ue, tx, rx).RSSdBm
		up += l.MeasureUplink(tm, bs, ue, tx, rx).RSSdBm
	}
	// The uplink runs the mobile's transmit-power deficit below the
	// downlink but through the same reciprocal channel.
	gap := (down - up) / n
	if math.Abs(gap-l.Cfg.UETxDeltaDB) > 1.0 {
		t.Errorf("uplink gap = %v dB, want ~%v", gap, l.Cfg.UETxDeltaDB)
	}
	m := l.MeasureUplink(0, bs, ue, tx, rx)
	if !m.Detected {
		t.Error("aligned uplink at 15 m should decode")
	}
}

func TestMeasureUplinkMisalignedFails(t *testing.T) {
	l := testLink(t, 8)
	bs := geom.Pose{Pos: geom.V(0, 0), Facing: 0}
	ue := geom.Pose{Pos: geom.V(15, 0), Facing: math.Pi}
	_, rx := l.BestBeamsOracle(bs, ue)
	// BS listens on the far edge beam: the uplink should mostly fail.
	detected := 0
	for i := 0; i < 200; i++ {
		if l.MeasureUplink(sim.Time(i)*20*sim.Millisecond, bs, ue, 0, rx).Detected {
			detected++
		}
	}
	if detected > 40 {
		t.Errorf("misaligned uplink decoded %d/200 times", detected)
	}
}

// segment derives the distance and both bearings from one atan2; it
// must agree with the Vec/Pose methods it replaced on the sample path,
// including the axis-aligned rays where atan2 sits on ±π.
func TestSegmentMatchesPoseGeometry(t *testing.T) {
	src := rng.Stream(1, "segment")
	check := func(bs geom.Vec, ue geom.Pose) {
		t.Helper()
		d, bsBearing, ueLocal := segment(bs, ue)
		if want := bs.Dist(ue.Pos); math.Abs(d-want) > 1e-12 {
			t.Fatalf("bs %v ue %v: d %v, want %v", bs, ue, d, want)
		}
		if want := (geom.Pose{Pos: bs}).BearingTo(ue.Pos); geom.AngleDist(bsBearing, want) > 1e-12 {
			t.Fatalf("bs %v ue %v: bs bearing %v, want %v", bs, ue, bsBearing, want)
		}
		want := ue.LocalBearingTo(bs)
		if geom.AngleDist(ueLocal, want) > 1e-12 {
			t.Fatalf("bs %v ue %v: local bearing %v, want %v", bs, ue, ueLocal, want)
		}
		if ueLocal < -math.Pi || ueLocal >= math.Pi {
			t.Fatalf("bs %v ue %v: local bearing %v outside [-π, π)", bs, ue, ueLocal)
		}
	}
	for i := 0; i < 20000; i++ {
		bs := geom.V(src.Uniform(-300, 300), src.Uniform(-300, 300))
		ue := geom.Pose{
			Pos:    geom.V(src.Uniform(-300, 300), src.Uniform(-300, 300)),
			Facing: src.Uniform(-math.Pi, math.Pi),
		}
		check(bs, ue)
	}
	for _, facing := range []float64{-math.Pi, -math.Pi / 2, 0, math.Pi / 2, math.Nextafter(math.Pi, 0)} {
		for _, off := range []geom.Vec{geom.V(10, 0), geom.V(-10, 0), geom.V(0, 10), geom.V(0, -10), geom.V(-3, -4)} {
			check(geom.V(5, 5), geom.Pose{Pos: geom.V(5, 5).Add(off), Facing: facing})
		}
	}
}
