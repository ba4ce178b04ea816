package channel

import (
	"math"
	"testing"

	"silenttracker/internal/mathx"
	"silenttracker/internal/rng"
)

// The per-sample path must not allocate: it is called once per beacon
// slot for every burst of every trial.
func TestMeasureAllocFree(t *testing.T) {
	l := NewLink(DefaultParams(), 1, "alloc")
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		i++
		l.Measure(float64(i)*1e-4, 15, 23, 20, 5)
	}); avg != 0 {
		t.Errorf("Link.Measure allocates %v per sample, want 0", avg)
	}
}

// The cached link constants must agree with the Params methods they
// replace on the hot path.
func TestCachedConstantsMatchParams(t *testing.T) {
	p := DefaultParams()
	p.SoftRangeLimit = 18
	p.SoftRangeRolloff = 10
	l := NewLink(p, 3, "consts")
	if got, want := l.noiseFloor, p.NoiseFloorDBm(); got != want {
		t.Errorf("cached noise floor %v, want %v", got, want)
	}
	for _, d := range []float64{0.2, 1, 5, 12.7, 18, 25, 400} {
		got, want := l.fspl(d), p.FSPLdB(d)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("fspl(%v) = %v, want %v", d, got, want)
		}
	}
}

// The SINR combines noise and interference in linear mW under one log;
// it must agree with the textbook form that inverts SNR and SIR
// separately, -10·log10(10^(-SNR/10) + 10^(-SIR/10)), across the whole
// range the channel produces.
func TestSINRMatchesInverseSum(t *testing.T) {
	l := NewLink(DefaultParams(), 1, "sinr")
	for snr := -60.0; snr <= 60; snr += 0.5 {
		for sir := -60.0; sir <= 60; sir += 0.5 {
			rss := l.noiseFloor + snr
			want := -mathx.LinToDB(mathx.DBToLin(-snr) + mathx.DBToLin(-sir))
			if got := l.sinrDB(rss, rss-sir); math.Abs(got-want) > 1e-9 {
				t.Fatalf("snr %v sir %v: sinr %v dB, want %v", snr, sir, got, want)
			}
		}
	}
}

// The two-entry step memo must give the same process, draw for draw,
// as computing the coefficients afresh on every step.
func TestShadowingMemoBitExact(t *testing.T) {
	memo := NewShadowing(2.5, 0.5, rng.Stream(4, "memo"))
	fresh := rng.Stream(4, "memo")
	cur := fresh.Normal(0, 2.5)
	steps := []float64{2.5e-4, 2.5e-4, 0.0163, 2.5e-4, 0.02, 0.02, 2.5e-4, 0.036, 1e-3, 2.5e-4}
	for i := 0; i < 500; i++ {
		dt := steps[i%len(steps)] * (1 + float64(i%7)*1e-13)
		rho := math.Exp(-dt / 0.5)
		cur = rho*cur + math.Sqrt(1-rho*rho)*fresh.Normal(0, 2.5)
		if got := memo.Advance(dt); got != cur {
			t.Fatalf("step %d (dt %v): memoised %v, fresh %v", i, dt, got, cur)
		}
	}
}

// MeasureSel with the exact dB-derived selectivity must match Measure
// draw for draw.
func TestMeasureSelMatchesMeasure(t *testing.T) {
	a := NewLink(DefaultParams(), 9, "sel")
	b := NewLink(DefaultParams(), 9, "sel")
	for i := 1; i < 200; i++ {
		t0 := float64(i) * 2e-4
		sa := a.Measure(t0, 14, 22, 19, 4)
		sb := b.MeasureSel(t0, 14, 22, 19, 4, mathx.DBToLin(19-4))
		if sa != sb {
			t.Fatalf("sample %d: Measure %+v != MeasureSel %+v", i, sa, sb)
		}
	}
}

func BenchmarkLinkMeasure(b *testing.B) {
	l := NewLink(DefaultParams(), 1, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Measure(float64(i)*1e-4, 15, 23, 20, 5)
	}
}

func BenchmarkLinkMeasureSel(b *testing.B) {
	l := NewLink(DefaultParams(), 1, "bench-sel")
	sel := mathx.DBToLin(15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.MeasureSel(float64(i)*1e-4, 15, 23, 20, 5, sel)
	}
}
