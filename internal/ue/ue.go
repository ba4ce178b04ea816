// Package ue models the mobile device's radio front end: a single RF
// chain that can point one receive beam at a time, per-cell air links,
// and the timing knowledge the mobile accumulates about cells it has
// heard.
//
// The single RF chain is the constraint the whole paper revolves
// around: every measurement occasion spent listening for a neighbor is
// an occasion not spent on the serving cell, so Silent Tracker must
// interleave the two. The Device enforces the constraint with a
// radio reservation ledger; protocols above it only express intent.
package ue

import (
	"fmt"

	"silenttracker/internal/antenna"
	"silenttracker/internal/geom"
	"silenttracker/internal/mobility"
	"silenttracker/internal/phy"
	"silenttracker/internal/sim"
)

// CellInfo is everything the simulation knows about one cell from the
// mobile's vantage point. The mobile itself only "knows" what it has
// measured; Pose and Sched here are ground truth used by the radio
// model, never read by protocol logic.
type CellInfo struct {
	ID    int
	Pose  geom.Pose
	Sched phy.Schedule
	Book  *antenna.Codebook
	Link  *phy.AirLink
}

// Timing is the mobile's learned synchronization state for one cell.
type Timing struct {
	Offset    sim.Time // estimated burst offset within the sweep period
	ErrNs     int64    // estimation error actually incurred (diagnostic)
	UpdatedAt sim.Time
	Valid     bool
}

// Device is the mobile radio.
type Device struct {
	ID    uint16
	Mob   mobility.Model
	Book  *antenna.Codebook
	Cells map[int]*CellInfo

	busyUntil sim.Time
	timing    map[int]Timing
	burstBuf  []phy.Measurement // reused row returned by MeasureBurst

	// TimingTTL bounds how long a timing estimate stays usable without
	// being refreshed by a decoded beacon.
	TimingTTL sim.Time

	// Diagnostics.
	BurstsListened int
	BurstsSkipped  int
}

// MaxID is the highest permanent device identity. IDs at or above it
// live in the temporary-ID range cells allocate from during random
// access (see cell.New), so a generated fleet carrying such an ID
// would collide with in-flight RAR grants.
const MaxID = 0x8000

// NewDevice constructs a mobile with the given identity, mobility and
// codebook. It panics on an ID in the cells' temporary-ID range:
// scenario generators assign fleet IDs programmatically, and a silent
// collision there would corrupt random access for everyone.
func NewDevice(id uint16, mob mobility.Model, book *antenna.Codebook) *Device {
	if id >= MaxID {
		panic(fmt.Sprintf("ue: device ID %#x is in the temporary-ID range [%#x, 0xffff]", id, MaxID))
	}
	return &Device{
		ID:        id,
		Mob:       mob,
		Book:      book,
		Cells:     make(map[int]*CellInfo),
		timing:    make(map[int]Timing),
		TimingTTL: 500 * sim.Millisecond,
	}
}

// AddCell registers a cell the radio environment contains.
func (d *Device) AddCell(ci *CellInfo) { d.Cells[ci.ID] = ci }

// Pose returns the mobile's pose at time t.
func (d *Device) Pose(t sim.Time) geom.Pose { return d.Mob.PoseAt(t.Seconds()) }

// Reserve claims the RF chain for [from, until). It reports false if
// the chain is already committed past from.
func (d *Device) Reserve(from, until sim.Time) bool {
	if from < d.busyUntil {
		return false
	}
	d.busyUntil = until
	return true
}

// Busy reports whether the RF chain is committed at time t.
func (d *Device) Busy(t sim.Time) bool { return t < d.busyUntil }

// MeasureBurst listens to one full sync burst of a cell with a single
// receive beam and returns the per-transmit-beam measurements. It
// refreshes the mobile's timing estimate for the cell whenever at
// least one beacon decodes. The caller must have reserved the radio.
// The returned row is a scratch buffer owned by the Device, valid
// until the next MeasureBurst call; every consumer reads it
// synchronously.
//
// The mobility model is evaluated only at the first and last beacon;
// the poses in between are interpolated (see burstPose). Every model
// is smooth, so over a burst the interpolation is off by a few
// thousandths of a degree and a few hundredths of a millimetre.
func (d *Device) MeasureBurst(cellID int, burstStart sim.Time, rx antenna.BeamID) []phy.Measurement {
	ci := d.Cells[cellID]
	if ci == nil {
		return nil
	}
	d.BurstsListened++
	out := d.burstBuf[:0]
	bestSNR := -1e9
	detected := false
	last := ci.Sched.NumTx - 1
	first := d.Pose(burstStart)
	final := d.Pose(ci.Sched.BeaconTime(burstStart, antenna.BeamID(last)))
	for tx := 0; tx <= last; tx++ {
		at := ci.Sched.BeaconTime(burstStart, antenna.BeamID(tx))
		m := ci.Link.Measure(at, ci.Pose, burstPose(first, final, tx, last), antenna.BeamID(tx), rx)
		out = append(out, m)
		if m.Detected {
			detected = true
			if m.SNRdB > bestSNR {
				bestSNR = m.SNRdB
			}
		}
	}
	d.burstBuf = out
	if detected {
		errS := ci.Link.SyncError(bestSNR)
		d.timing[cellID] = Timing{
			Offset:    ci.Sched.Offset + sim.FromSeconds(errS),
			ErrNs:     int64(errS * 1e9),
			UpdatedAt: burstStart,
			Valid:     true,
		}
	}
	return out
}

// burstPose is the pose at beacon k of a burst whose beacons 0 and
// last (evenly spaced in time) have poses first and final: exact at
// the ends, linear in between. Facing moves along the shorter arc.
func burstPose(first, final geom.Pose, k, last int) geom.Pose {
	switch k {
	case 0:
		return first
	case last:
		return final
	}
	f := float64(k) / float64(last)
	return geom.Pose{
		Pos:    first.Pos.Add(final.Pos.Sub(first.Pos).Scale(f)),
		Facing: geom.WrapNear(first.Facing + geom.WrapNear(final.Facing-first.Facing)*f),
	}
}

// KnowsTiming reports whether the mobile holds a fresh timing estimate
// for the cell — the prerequisite for random access toward it.
func (d *Device) KnowsTiming(cellID int, now sim.Time) bool {
	tm, ok := d.timing[cellID]
	return ok && tm.Valid && now-tm.UpdatedAt <= d.TimingTTL
}

// TimingOf returns the mobile's timing estimate for a cell.
func (d *Device) TimingOf(cellID int) (Timing, bool) {
	tm, ok := d.timing[cellID]
	return tm, ok
}

// InvalidateTiming discards the timing estimate for a cell (used when
// the protocol declares the cell lost).
func (d *Device) InvalidateTiming(cellID int) {
	tm := d.timing[cellID]
	tm.Valid = false
	d.timing[cellID] = tm
}

// UplinkSNR computes the SNR at the cell for a mobile transmission on
// beam ueBeam while the cell listens on cellBeam, at time t.
func (d *Device) UplinkSNR(t sim.Time, cellID int, cellBeam, ueBeam antenna.BeamID) (float64, bool) {
	ci := d.Cells[cellID]
	if ci == nil {
		return 0, false
	}
	m := ci.Link.MeasureUplink(t, ci.Pose, d.Pose(t), cellBeam, ueBeam)
	return m.SNRdB, m.Detected
}

// DownlinkMeasure computes reception of a single downlink control
// transmission from a cell on cellBeam while the mobile listens on
// ueBeam.
func (d *Device) DownlinkMeasure(t sim.Time, cellID int, cellBeam, ueBeam antenna.BeamID) (phy.Measurement, bool) {
	ci := d.Cells[cellID]
	if ci == nil {
		return phy.Measurement{}, false
	}
	m := ci.Link.Measure(t, ci.Pose, d.Pose(t), cellBeam, ueBeam)
	m.Detected = m.SINRdB >= ci.Link.Cfg.CtrlSNRdB
	return m, true
}

// BestRxOracle returns the geometrically ideal receive beam toward a
// cell at time t. For tests and genie baselines only.
func (d *Device) BestRxOracle(cellID int, t sim.Time) antenna.BeamID {
	ci := d.Cells[cellID]
	if ci == nil {
		return antenna.NoBeam
	}
	return d.Book.BestBeam(d.Pose(t).LocalBearingTo(ci.Pose.Pos))
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("ue %d (%d cells known)", d.ID, len(d.Cells))
}
