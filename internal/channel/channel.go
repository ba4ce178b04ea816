// Package channel models 60 GHz mm-wave propagation: free-space path
// loss with oxygen absorption, time-correlated log-normal shadowing,
// Rician small-scale fading, and an on/off Markov human-body blocker.
//
// The model produces the one observable Silent Tracker consumes:
// the received signal strength (RSS, dBm) of a given transmit/receive
// beam pair at a given instant. The paper's SDR front end produced
// exactly this; everything above the RSS sample (protocol logic,
// thresholds, timing) is independent of how the sample was produced.
package channel

import (
	"math"

	"silenttracker/internal/mathx"
	"silenttracker/internal/rng"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299792458.0

// Params holds the link-budget constants for a deployment. The
// defaults follow a typical 60 GHz testbed (the paper used the NI
// mmWave Transceiver System, 2 GHz channels in the 60 GHz band).
type Params struct {
	CarrierHz    float64 // carrier frequency
	BandwidthHz  float64 // channel bandwidth (sets the noise floor)
	NoiseFigDB   float64 // receiver noise figure
	TxPowerDBm   float64 // base-station transmit power
	ShadowSigma  float64 // log-normal shadowing std-dev, dB
	ShadowCorrT  float64 // shadowing decorrelation time constant, s
	RicianK_LOS  float64 // Rician K factor with line of sight (linear)
	RicianK_NLOS float64 // Rician K factor when blocked (linear)
	BlockLossDB  float64 // mean extra attenuation while blocked
	OxygenDBkm   float64 // oxygen absorption, dB per km
	// Blockage dynamics: exponential holding times.
	BlockMeanLOS  float64 // mean seconds between blockage events
	BlockMeanHold float64 // mean seconds a blockage lasts
	// Diffuse multipath: reflected energy arrives from all azimuths
	// ReflLossDB below the LOS path and limits the SINR of receivers
	// with low angular selectivity (the omni penalty).
	ReflLossDB float64 // mean reflection loss relative to LOS
	SIRSigmaDB float64 // per-sample fluctuation of the interference

	// Coverage edge: beyond SoftRangeLimit meters the path loss grows
	// an extra SoftRangeRolloff dB per meter. Zero disables. This
	// models the abrupt coverage boundaries of mm-wave cells (corner
	// loss is tens of dB over a few meters of walk) and is how a
	// scenario makes a mobile genuinely *leave* a cell.
	SoftRangeLimit   float64
	SoftRangeRolloff float64
}

// DefaultParams returns the calibrated 60 GHz deployment constants
// used by all experiments.
func DefaultParams() Params {
	return Params{
		CarrierHz:     60e9,
		BandwidthHz:   2e9,
		NoiseFigDB:    7,
		TxPowerDBm:    20,
		ShadowSigma:   2.5,
		ShadowCorrT:   0.5,
		RicianK_LOS:   10,
		RicianK_NLOS:  1,
		BlockLossDB:   22,
		OxygenDBkm:    15,
		BlockMeanLOS:  6.0,
		BlockMeanHold: 0.35,
		ReflLossDB:    11.5,
		SIRSigmaDB:    3,
	}
}

// NoiseFloorDBm returns the thermal noise power plus noise figure for
// the configured bandwidth. Links cache this at construction; the
// method exists for planning code that has no Link.
func (p Params) NoiseFloorDBm() float64 {
	return -174 + 10*math.Log10(p.BandwidthHz) + p.NoiseFigDB
}

// FSPLdB returns the free-space path loss at distance d meters,
// including oxygen absorption and the soft coverage edge (if
// configured). Distances below 1 m are clamped.
func (p Params) FSPLdB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	lambda := SpeedOfLight / p.CarrierHz
	fspl := 20 * math.Log10(4*math.Pi*d/lambda)
	fspl += p.OxygenDBkm * d / 1000
	if p.SoftRangeLimit > 0 && d > p.SoftRangeLimit {
		fspl += (d - p.SoftRangeLimit) * p.SoftRangeRolloff
	}
	return fspl
}

// Shadowing is a time-correlated log-normal shadowing process
// (first-order Gauss-Markov / Ornstein-Uhlenbeck in dB).
type Shadowing struct {
	sigma float64
	tau   float64
	cur   float64
	src   *rng.Source
	// Memoised correlation coefficients for the last two step sizes:
	// a link advances by the beacon slot inside a burst and by the gap
	// between the bursts it is heard on, so the exp/sqrt pair mostly
	// comes from here instead of being recomputed. A miss replaces the
	// entry that did not serve the previous step, so the in-burst step
	// survives a run of distinct gaps.
	memo [2]stepCoef
	last int // index of the entry that served the previous step
}

// stepCoef holds the Gauss-Markov coefficients of one step size dt:
// ρ = exp(-dt/τ) and √(1-ρ²).
type stepCoef struct{ dt, rho, sq float64 }

// NewShadowing constructs a shadowing process with the given std-dev
// (dB) and decorrelation time constant (s), drawing from src.
func NewShadowing(sigma, tau float64, src *rng.Source) *Shadowing {
	s := &Shadowing{sigma: sigma, tau: tau, src: src}
	s.cur = src.Normal(0, sigma)
	return s
}

// Advance moves the process forward dt seconds and returns the new
// shadowing value in dB.
func (s *Shadowing) Advance(dt float64) float64 {
	if dt <= 0 {
		return s.cur
	}
	i := s.last
	if dt != s.memo[i].dt {
		i ^= 1
		if dt != s.memo[i].dt {
			rho := math.Exp(-dt / s.tau)
			s.memo[i] = stepCoef{dt: dt, rho: rho, sq: math.Sqrt(1 - rho*rho)}
		}
		s.last = i
	}
	c := &s.memo[i]
	s.cur = c.rho*s.cur + c.sq*s.src.Normal(0, s.sigma)
	return s.cur
}

// Value returns the current shadowing value in dB.
func (s *Shadowing) Value() float64 { return s.cur }

// Blocker is a continuous-time two-state Markov process modelling
// human-body blockage of the line-of-sight path.
type Blocker struct {
	meanLOS  float64
	meanHold float64
	blocked  bool
	nextAt   float64 // absolute time of the next state flip, s
	src      *rng.Source
}

// NewBlocker constructs a blocker starting in the LOS state at t=0.
func NewBlocker(meanLOS, meanHold float64, src *rng.Source) *Blocker {
	b := &Blocker{meanLOS: meanLOS, meanHold: meanHold, src: src}
	b.nextAt = src.Exp(meanLOS)
	return b
}

// Disabled returns a blocker that never blocks; used by scenarios that
// isolate mobility effects.
func Disabled() *Blocker {
	return &Blocker{nextAt: math.Inf(1)}
}

// BlockedAt advances the process to absolute time t (seconds,
// monotone across calls) and reports whether the path is blocked.
func (b *Blocker) BlockedAt(t float64) bool {
	for t >= b.nextAt {
		b.blocked = !b.blocked
		var hold float64
		if b.blocked {
			hold = b.src.Exp(b.meanHold)
		} else {
			hold = b.src.Exp(b.meanLOS)
		}
		if hold <= 0 {
			hold = 1e-3
		}
		b.nextAt += hold
	}
	return b.blocked
}

// Link is the propagation state between one base station and one
// mobile: shadowing and blockage processes plus fading draws.
// A Link is not safe for concurrent use; the simulator is
// single-threaded by design.
type Link struct {
	P       Params
	shadow  *Shadowing
	sirProc *Shadowing // slow multipath-structure process (dB on the SIR)
	blocker *Blocker
	fading  *rng.Source
	lastT   float64

	// Link-budget constants cached at construction so the per-sample
	// path recomputes nothing that the deployment fixes.
	noiseFloor float64 // P.NoiseFloorDBm()
	noiseLin   float64 // the noise floor in linear mW
	fsplBase   float64 // 20·log10(4π/λ): FSPL at 1 m before the distance term
	oxyPerM    float64 // oxygen absorption per meter
}

// NewLink builds a link with fresh stochastic processes drawn from the
// named streams of seed.
func NewLink(p Params, seed int64, name string) *Link {
	return &Link{
		P:          p,
		noiseFloor: p.NoiseFloorDBm(),
		noiseLin:   mathx.DBToLin(p.NoiseFloorDBm()),
		fsplBase:   20 * math.Log10(4*math.Pi*p.CarrierHz/SpeedOfLight),
		oxyPerM:    p.OxygenDBkm / 1000,
		shadow:     NewShadowing(p.ShadowSigma, p.ShadowCorrT, rng.Stream(seed, name+"/shadow")),
		// The diffuse-multipath structure changes with geometry, i.e.
		// on the same timescale as shadowing — NOT per sample. This is
		// what makes a low-selectivity receiver fail for entire search
		// procedures at a time rather than flipping a coin per beacon.
		sirProc: NewShadowing(p.SIRSigmaDB, 0.6*p.ShadowCorrT, rng.Stream(seed, name+"/sir")),
		blocker: NewBlocker(p.BlockMeanLOS, p.BlockMeanHold, rng.Stream(seed, name+"/block")),
		fading:  rng.Stream(seed, name+"/fading"),
	}
}

// NewLinkNoBlockage builds a link whose LOS is never blocked.
func NewLinkNoBlockage(p Params, seed int64, name string) *Link {
	l := NewLink(p, seed, name)
	l.blocker = Disabled()
	return l
}

// Sample holds one RSS observation and its decomposition, for traces
// and tests.
type Sample struct {
	RSSdBm    float64
	PathLoss  float64
	Shadow    float64
	FadingDB  float64
	Blocked   bool
	BlockLoss float64
	// SIRdB is the signal-to-(multipath-self-)interference ratio seen
	// by the receiver; SINRdB combines it with thermal SNR and is what
	// detection decisions use.
	SIRdB  float64
	SINRdB float64
}

// Measure returns the RSS (dBm) for a transmission at absolute time t
// (seconds) over distance d (meters) with the given antenna gains
// (dBi). rxGainDBi is the receive gain toward the direct path;
// rxAvgGainDBi is the receive pattern's azimuth-average gain
// (antenna.Codebook.AvgGainDBi), which is what diffuse reflections —
// arriving from every direction — are received with. The gap between
// the two is the receiver's angular selectivity: it sets the
// self-interference floor that makes omni receivers fail at mm-wave
// even at high RSS, and it scales the effective Rician K (a beam
// pointed away from the LOS sees mostly scatter). The call advances
// the shadowing and blockage processes to t.
func (l *Link) Measure(t, d, txGainDBi, rxGainDBi, rxAvgGainDBi float64) Sample {
	return l.MeasureSel(t, d, txGainDBi, rxGainDBi, rxAvgGainDBi,
		mathx.DBToLin(rxGainDBi-rxAvgGainDBi))
}

// MeasureSel is Measure with the receiver's linear selectivity
// (10^((rxGainDBi-rxAvgGainDBi)/10)) supplied by the caller. The phy
// layer reads both scales straight out of the antenna gain tables, so
// the per-sample dB→linear conversion disappears from the hot path.
func (l *Link) MeasureSel(t, d, txGainDBi, rxGainDBi, rxAvgGainDBi, selLin float64) Sample {
	dt := t - l.lastT
	if dt < 0 {
		dt = 0
	}
	l.lastT = t

	pl := l.fspl(d)
	sh := l.shadow.Advance(dt)
	sirFluct := l.sirProc.Advance(dt)
	blocked := l.blocker.BlockedAt(t)

	// Pointing-dependent selectivity: how much stronger the direct
	// path is received than the scattered field.
	kScale := (selLin - 1) / (selLin + 1)
	if kScale < 0 {
		kScale = 0
	}
	k := l.P.RicianK_LOS * kScale
	blockLoss := 0.0
	if blocked {
		k = l.P.RicianK_NLOS * kScale
		// Blockage depth varies a little per sample around the mean.
		blockLoss = l.P.BlockLossDB + l.fading.Normal(0, 2)
		if blockLoss < 0 {
			blockLoss = 0
		}
	}
	fade := mathx.LinToDB(l.fading.Rician(k))

	rss := l.P.TxPowerDBm + txGainDBi + rxGainDBi - pl + sh + fade - blockLoss

	// Diffuse reflections: transmitted energy minus reflection loss,
	// received with the pattern's average (not boresight) gain.
	// Blockage attenuates the direct path only: reflections go around
	// the blocker, so the SIR collapses by the block loss too.
	interf := l.P.TxPowerDBm + txGainDBi + rxAvgGainDBi -
		pl - l.P.ReflLossDB + sh + sirFluct + l.fading.Normal(0, 1)
	sir := rss - interf
	sinr := l.sinrDB(rss, interf)

	return Sample{
		RSSdBm:    rss,
		PathLoss:  pl,
		Shadow:    sh,
		FadingDB:  fade,
		Blocked:   blocked,
		BlockLoss: blockLoss,
		SIRdB:     sir,
		SINRdB:    sinr,
	}
}

// sinrDB is the SINR of a signal at rss dBm over the thermal noise
// floor plus interference at interf dBm: S/(N+I), with the two
// impairments summed in linear mW, so a sample pays one exp and one
// log.
func (l *Link) sinrDB(rss, interf float64) float64 {
	return rss - mathx.LinToDB(l.noiseLin+mathx.DBToLin(interf))
}

// fspl is FSPLdB against the link's cached constants: the same value
// to within an ulp, without re-deriving the wavelength term per
// sample.
func (l *Link) fspl(d float64) float64 {
	if d < 1 {
		d = 1
	}
	pl := l.fsplBase + 20*mathx.Log10(d) + l.oxyPerM*d
	if l.P.SoftRangeLimit > 0 && d > l.P.SoftRangeLimit {
		pl += (d - l.P.SoftRangeLimit) * l.P.SoftRangeRolloff
	}
	return pl
}

// SNRdB converts an RSS to an SNR against the configured noise floor.
func (l *Link) SNRdB(rssDBm float64) float64 {
	return rssDBm - l.noiseFloor
}

// Detectable reports whether a beacon at the given RSS can be decoded.
// Synchronization-signal detection needs a modest SNR; 0 dB over a
// 2 GHz noise floor is the calibrated threshold.
func (l *Link) Detectable(rssDBm float64) bool {
	return l.SNRdB(rssDBm) >= 0
}

// MeanRSSdBm returns the deterministic link budget (no shadowing,
// fading, or blockage) — the quantity link-planning predicts.
func (p Params) MeanRSSdBm(d, txGainDBi, rxGainDBi float64) float64 {
	return p.TxPowerDBm + txGainDBi + rxGainDBi - p.FSPLdB(d)
}
