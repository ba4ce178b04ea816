// Package phy models the mm-wave air interface: the beacon sweep
// frame structure, per-beam RSS measurements, timing synchronization,
// and random-access preamble detection.
//
// Frame structure. Each base station transmits a synchronization
// burst every SweepPeriod (default 20 ms, the 5G NR SSB period). A
// burst carries one beacon per transmit beam in consecutive beacon
// slots. A mobile with a single RF chain selects one receive beam per
// burst, so an exhaustive directional search over R receive beams
// costs R sweep periods — with 64 positions that is the 1.28 s the
// paper cites for 5G initial search.
//
// Asynchrony. Cells are not synchronized: each has a private offset of
// its burst within the sweep period. A mobile knows the serving cell's
// offset (it is connected) but must discover a neighbor's offset by
// listening — this is the "deriving timing information" step of the
// handover problem.
package phy

import (
	"fmt"
	"math"

	"silenttracker/internal/antenna"
	"silenttracker/internal/channel"
	"silenttracker/internal/geom"
	"silenttracker/internal/mathx"
	"silenttracker/internal/rng"
	"silenttracker/internal/sim"
)

// Config holds air-interface timing and detection constants.
type Config struct {
	SweepPeriod sim.Time // interval between sync bursts of one cell
	BeaconSlot  sim.Time // duration of one per-beam beacon
	DataSlot    sim.Time // duration of one data/control slot
	DetectSNRdB float64  // minimum SNR to decode a beacon
	RACHSNRdB   float64  // minimum SNR to detect an uplink preamble
	CtrlSNRdB   float64  // minimum SNR to decode a control message
	SyncSigma   float64  // timing-estimate error std-dev at 0 dB SNR, seconds
	UETxDeltaDB float64  // how many dB the mobile transmits below the BS
}

// DefaultConfig returns the timing constants used by all experiments.
func DefaultConfig() Config {
	return Config{
		SweepPeriod: 20 * sim.Millisecond,
		BeaconSlot:  250 * sim.Microsecond,
		DataSlot:    125 * sim.Microsecond,
		DetectSNRdB: 6,
		RACHSNRdB:   6,
		CtrlSNRdB:   6,
		SyncSigma:   2e-6,
		UETxDeltaDB: 5,
	}
}

// BurstDuration returns the duration of a full sync burst for a cell
// with n transmit beams.
func (c Config) BurstDuration(n int) sim.Time {
	return sim.Time(n) * c.BeaconSlot
}

// Schedule describes one cell's periodic sync burst: its offset within
// the sweep period and its beam count.
type Schedule struct {
	Offset  sim.Time // burst start offset within the sweep period
	NumTx   int      // transmit beams per burst
	Period  sim.Time
	SlotDur sim.Time
}

// NewSchedule builds a burst schedule. Offsets are reduced modulo the
// period.
func NewSchedule(cfg Config, offset sim.Time, numTx int) Schedule {
	if numTx < 1 {
		panic("phy: schedule needs at least one tx beam")
	}
	p := cfg.SweepPeriod
	off := offset % p
	if off < 0 {
		off += p
	}
	return Schedule{Offset: off, NumTx: numTx, Period: p, SlotDur: cfg.BeaconSlot}
}

// NextBurst returns the start time of the first burst at or after t.
func (s Schedule) NextBurst(t sim.Time) sim.Time {
	if t < 0 {
		t = 0
	}
	k := (t - s.Offset + s.Period - 1) / s.Period
	if s.Offset >= t {
		return s.Offset
	}
	return s.Offset + k*s.Period
}

// BeaconTime returns the transmit time of the beacon for beam b within
// the burst starting at burstStart.
func (s Schedule) BeaconTime(burstStart sim.Time, b antenna.BeamID) sim.Time {
	return burstStart + sim.Time(b)*s.SlotDur
}

// BurstEnd returns the end time of a burst starting at burstStart.
func (s Schedule) BurstEnd(burstStart sim.Time) sim.Time {
	return burstStart + sim.Time(s.NumTx)*s.SlotDur
}

// Overlaps reports whether bursts of two schedules can overlap in
// time (same period assumed).
func (s Schedule) Overlaps(o Schedule) bool {
	aStart, aEnd := s.Offset, s.Offset+sim.Time(s.NumTx)*s.SlotDur
	bStart, bEnd := o.Offset, o.Offset+sim.Time(o.NumTx)*o.SlotDur
	// Compare on the circle of length Period.
	if intervalOverlap(aStart, aEnd, bStart, bEnd) {
		return true
	}
	// Account for wrap-around by shifting one schedule a full period.
	return intervalOverlap(aStart+s.Period, aEnd+s.Period, bStart, bEnd) ||
		intervalOverlap(aStart, aEnd, bStart+o.Period, bEnd+o.Period)
}

func intervalOverlap(a0, a1, b0, b1 sim.Time) bool {
	return a0 < b1 && b0 < a1
}

// Measurement is one beacon reception attempt: the observable the
// protocol runs on.
type Measurement struct {
	Cell     int            // transmitting cell ID
	TxBeam   antenna.BeamID // cell's beam
	RxBeam   antenna.BeamID // mobile's beam
	At       sim.Time
	RSSdBm   float64
	SNRdB    float64 // thermal SNR
	SINRdB   float64 // SNR combined with multipath self-interference
	Detected bool    // beacon decoded (SINR above detection threshold)
	Blocked  bool    // LOS was blocked at sample time
}

// String implements fmt.Stringer.
func (m Measurement) String() string {
	return fmt.Sprintf("cell=%d tx=%d rx=%d rss=%.1fdBm snr=%.1fdB det=%v",
		m.Cell, m.TxBeam, m.RxBeam, m.RSSdBm, m.SNRdB, m.Detected)
}

// AirLink binds a channel realisation to the two codebooks of a
// (cell, mobile) pair and produces Measurements.
type AirLink struct {
	Cfg    Config
	CellID int
	BS     *antenna.Codebook // base-station codebook (world frame)
	UE     *antenna.Codebook // mobile codebook (body frame)
	Ch     *channel.Link
	sync   *rng.Source

	// Receiver constants cached from the codebooks: average gains in
	// dB and their linear inverses, so per-sample selectivity is one
	// multiply on the table's linear gain.
	ueAvgDBi, ueInvAvgLin float64
	bsAvgDBi, bsInvAvgLin float64
}

// NewAirLink builds the air link for one (cell, mobile) pair.
// Stochastic processes derive from (seed, name).
func NewAirLink(cfg Config, cellID int, bs, ue *antenna.Codebook, ch *channel.Link, seed int64, name string) *AirLink {
	return &AirLink{
		Cfg:         cfg,
		CellID:      cellID,
		BS:          bs,
		UE:          ue,
		Ch:          ch,
		sync:        rng.Stream(seed, name+"/sync"),
		ueAvgDBi:    ue.AvgGainDBi(),
		ueInvAvgLin: 1 / ue.AvgGainLin(),
		bsAvgDBi:    bs.AvgGainDBi(),
		bsInvAvgLin: 1 / bs.AvgGainLin(),
	}
}

// Measure simulates reception of a beacon transmitted on txBeam while
// the mobile listens on rxBeam, with the given poses at time t.
// Base stations do not rotate: the BS body frame is the world frame.
func (a *AirLink) Measure(t sim.Time, bsPose, uePose geom.Pose, tx, rx antenna.BeamID) Measurement {
	d, bsBearing, ueLocal := segment(bsPose.Pos, uePose)
	txGain := a.BS.GainDB(tx, bsBearing)
	rxGain, rxLin := a.UE.GainDBLin(rx, ueLocal)
	s := a.Ch.MeasureSel(t.Seconds(), d, txGain, rxGain, a.ueAvgDBi, rxLin*a.ueInvAvgLin)
	return Measurement{
		Cell:     a.CellID,
		TxBeam:   tx,
		RxBeam:   rx,
		At:       t,
		RSSdBm:   s.RSSdBm,
		SNRdB:    a.Ch.SNRdB(s.RSSdBm),
		SINRdB:   s.SINRdB,
		Detected: s.SINRdB >= a.Cfg.DetectSNRdB,
		Blocked:  s.Blocked,
	}
}

// MeasureUplink simulates reception at the cell of a mobile
// transmission: the mobile transmits on its beam rx (beam
// correspondence — it transmits where it listens) and the cell
// receives on beam tx. The channel realisation is reciprocal, but the
// roles swap: the mobile transmits UETxDeltaDB below the base station
// and the base station's own receive selectivity governs the
// interference floor.
func (a *AirLink) MeasureUplink(t sim.Time, bsPose, uePose geom.Pose, tx, rx antenna.BeamID) Measurement {
	d, bsBearing, ueLocal := segment(bsPose.Pos, uePose)
	ueGain := a.UE.GainDB(rx, ueLocal)
	bsGain, bsLin := a.BS.GainDBLin(tx, bsBearing)
	s := a.Ch.MeasureSel(t.Seconds(), d, ueGain-a.Cfg.UETxDeltaDB, bsGain, a.bsAvgDBi, bsLin*a.bsInvAvgLin)
	return Measurement{
		Cell:     a.CellID,
		TxBeam:   tx,
		RxBeam:   rx,
		At:       t,
		RSSdBm:   s.RSSdBm,
		SNRdB:    a.Ch.SNRdB(s.RSSdBm),
		SINRdB:   s.SINRdB,
		Detected: s.SINRdB >= a.Cfg.CtrlSNRdB,
		Blocked:  s.Blocked,
	}
}

// segment is the base station–mobile geometry of one sample, from a
// single atan2: the distance, the bearing of the mobile from the base
// station (world frame, which is the base station's body frame), and
// the bearing of the base station in the mobile's body frame. The
// latter is the reverse ray, so it is the same bearing turned by π. It
// agrees with Vec.Dist, Pose.BearingTo and Pose.LocalBearingTo to
// within a few ulps.
func segment(bs geom.Vec, ue geom.Pose) (d, bsBearing, ueLocal float64) {
	dx, dy := ue.Pos.X-bs.X, ue.Pos.Y-bs.Y
	d = math.Sqrt(dx*dx + dy*dy)
	bsBearing = math.Atan2(dy, dx)
	ueLocal = geom.WrapNear(bsBearing + math.Pi - ue.Facing)
	return d, bsBearing, ueLocal
}

// SyncError returns a timing-estimate error (seconds) for a beacon
// decoded at the given SNR: tighter at high SNR, looser near the
// detection floor.
func (a *AirLink) SyncError(snrDB float64) float64 {
	scale := mathx.DBToAmp(-snrDB) // error ∝ 1/amplitude-SNR
	if scale > 4 {
		scale = 4
	}
	return a.sync.Normal(0, a.Cfg.SyncSigma*scale)
}

// PreambleDetected reports whether an uplink RACH preamble transmitted
// at the given uplink SNR is detected by the cell. Detection is hard
// at the threshold with a steep logistic roll-off, matching a
// correlator detector.
func (a *AirLink) PreambleDetected(snrDB float64) bool {
	// Logistic curve centred on the RACH threshold, 1 dB slope.
	p := 1 / (1 + math.Exp(-(snrDB-a.Cfg.RACHSNRdB)/0.5))
	return a.sync.Bool(p)
}

// BestBeamsOracle returns the ideal (tx, rx) beam pair for the given
// geometry — the pair a genie would pick. Used by tests and the
// genie-aided baseline, never by the protocol itself.
func (a *AirLink) BestBeamsOracle(bsPose, uePose geom.Pose) (tx, rx antenna.BeamID) {
	tx = a.BS.BestBeam(bsPose.BearingTo(uePose.Pos))
	rx = a.UE.BestBeam(uePose.LocalBearingTo(bsPose.Pos))
	return tx, rx
}
