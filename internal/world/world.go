// Package world is the closed-loop runtime: it binds the discrete-
// event engine, the base stations, the mobile's radio front end, and a
// Silent Tracker protocol instance, and runs them against the channel
// model.
//
// The runtime owns everything the protocol must not know: ground-truth
// burst schedules (the protocol only learns timing by decoding
// beacons), radio-contention arbitration for the single RF chain, and
// the conversion of protocol actions into MAC messages whose delivery
// is gated by uplink/downlink physics.
package world

import (
	"fmt"

	"silenttracker/internal/antenna"
	"silenttracker/internal/cell"
	"silenttracker/internal/channel"
	"silenttracker/internal/core"
	"silenttracker/internal/geom"
	"silenttracker/internal/mac"
	"silenttracker/internal/mobility"
	"silenttracker/internal/phy"
	"silenttracker/internal/sim"
	"silenttracker/internal/ue"
)

// Params configures runtime behaviour beyond the protocol constants.
type Params struct {
	Phy           phy.Config
	Channel       channel.Params
	Cell          cell.Config
	BackhaulDelay sim.Time // one-way inter-cell context-transfer delay
	TickPeriod    sim.Time // cell housekeeping cadence
}

// DefaultParams returns the calibrated runtime constants.
func DefaultParams() Params {
	return Params{
		Phy:           phy.DefaultConfig(),
		Channel:       channel.DefaultParams(),
		Cell:          cell.DefaultConfig(),
		BackhaulDelay: 5 * sim.Millisecond,
		TickPeriod:    50 * sim.Millisecond,
	}
}

// CellSpec describes one base station of a scenario.
type CellSpec struct {
	ID          int
	Pos         geom.Vec
	Facing      float64  // sector centre, world frame
	BurstOffset sim.Time // sync-burst offset within the sweep period
	NoBlockage  bool     // disable the blocker on this cell's link
	// RangeLimit, if positive, gives this cell's link a soft coverage
	// edge (channel.Params.SoftRangeLimit) with a 10 dB/m roll-off —
	// the mm-wave corner-loss model for a mobile walking out of the
	// cell.
	RangeLimit float64
	// BlockMeanLOS / BlockMeanHold, if positive, override the blockage
	// dynamics on this cell's link (mean seconds between blockage
	// events / mean seconds one lasts). Scenario generators use them to
	// express blocker fields: dense foot traffic near one cell means
	// more frequent blockage events on that cell's link only.
	BlockMeanLOS  float64
	BlockMeanHold float64
}

// World is a fully wired scenario.
type World struct {
	P       Params
	Engine  *sim.Engine
	Cells   map[int]*cell.Cell
	Device  *ue.Device
	Tracker *core.Tracker
	Seed    int64

	// Diagnostics.
	UplinkDrops    int
	DownlinkDrops  int
	SkippedBursts  int // radio contention: burst not listened to
	PreamblesSent  int
	PreamblesHeard int
	// Radio-time accounting: the paper's "minimal resource usage"
	// claim is about how few measurement occasions the neighbor side
	// steals from the serving link.
	ServingListens  int // bursts spent on the serving cell
	NeighborListens int // bursts spent searching/tracking neighbors

	rachOffsets map[int]sim.Time
	seq         uint32
}

// Builder assembles a World step by step.
type Builder struct {
	P      Params
	Cfg    core.Config
	Seed   int64
	UEBook *antenna.Codebook
	Mob    mobility.Model
	Specs  []CellSpec

	ServingCell int
	// UEID is the mobile's identity (0 selects the historical default
	// of 7). Generated fleets give every mobile a distinct ID so MAC
	// contexts and connection tables stay per-device meaningful.
	UEID uint16
}

// NewBuilder returns a builder with default parameters.
func NewBuilder(seed int64) *Builder {
	return &Builder{
		P:      DefaultParams(),
		Cfg:    core.DefaultConfig(),
		Seed:   seed,
		UEBook: antenna.NarrowMobile(),
	}
}

// AddCell registers a base station.
func (b *Builder) AddCell(spec CellSpec) *Builder {
	b.Specs = append(b.Specs, spec)
	return b
}

// Build wires the scenario. The mobile starts attached to
// b.ServingCell with oracle-chosen beams (it was mid-cell and
// converged before the scenario window begins).
func (b *Builder) Build() *World {
	if b.Mob == nil {
		panic("world: builder needs a mobility model")
	}
	if len(b.Specs) == 0 {
		panic("world: builder needs at least one cell")
	}
	w := &World{
		P:           b.P,
		Engine:      sim.NewEngine(),
		Cells:       make(map[int]*cell.Cell),
		Seed:        b.Seed,
		rachOffsets: make(map[int]sim.Time),
	}
	ueID := b.UEID
	if ueID == 0 {
		ueID = 7
	}
	dev := ue.NewDevice(ueID, b.Mob, b.UEBook)
	w.Device = dev

	for _, spec := range b.Specs {
		book := antenna.StandardBS(spec.Facing)
		sched := phy.NewSchedule(b.P.Phy, spec.BurstOffset, book.Size())
		c := cell.New(spec.ID, geom.Pose{Pos: spec.Pos, Facing: spec.Facing}, book, sched, b.P.Cell)
		c.SetBackhaul(w)
		w.Cells[spec.ID] = c

		name := fmt.Sprintf("link-%d", spec.ID)
		chp := b.P.Channel
		if spec.RangeLimit > 0 {
			chp.SoftRangeLimit = spec.RangeLimit
			chp.SoftRangeRolloff = 10
		}
		if spec.BlockMeanLOS > 0 {
			chp.BlockMeanLOS = spec.BlockMeanLOS
		}
		if spec.BlockMeanHold > 0 {
			chp.BlockMeanHold = spec.BlockMeanHold
		}
		var ch *channel.Link
		if spec.NoBlockage {
			ch = channel.NewLinkNoBlockage(chp, b.Seed, name)
		} else {
			ch = channel.NewLink(chp, b.Seed, name)
		}
		link := phy.NewAirLink(b.P.Phy, spec.ID, book, b.UEBook, ch, b.Seed, name)
		dev.AddCell(&ue.CellInfo{ID: spec.ID, Pose: c.Pose, Sched: sched, Book: book, Link: link})
		// RACH occasions trail the sync burst by one burst duration.
		w.rachOffsets[spec.ID] = (spec.BurstOffset + b.P.Phy.BurstDuration(book.Size()) +
			sim.Millisecond) % b.Cfg.Rach.OccasionPeriod
	}

	// Initial attach: oracle beams at t=0 — the mobile converged on its
	// serving cell before the scenario window.
	serving := w.Cells[b.ServingCell]
	if serving == nil {
		panic(fmt.Sprintf("world: serving cell %d not among specs", b.ServingCell))
	}
	ci := dev.Cells[b.ServingCell]
	tx, rx := ci.Link.BestBeamsOracle(serving.Pose, dev.Pose(0))
	initRSS := b.P.Channel.MeanRSSdBm(
		serving.Pose.Pos.Dist(dev.Pose(0).Pos),
		serving.Book.GainDB(tx, serving.Pose.BearingTo(dev.Pose(0).Pos)),
		b.UEBook.GainDB(rx, dev.Pose(0).LocalBearingTo(serving.Pose.Pos)),
	)
	serving.Admit(0, dev.ID, tx, mac.Context{UE: dev.ID, SourceCell: uint16(b.ServingCell), BearerID: 1})
	w.Tracker = core.NewTracker(b.Cfg, b.UEBook, b.ServingCell, serving.Book, tx, rx, initRSS, b.Seed)
	for id, c := range w.Cells {
		if id != b.ServingCell {
			w.Tracker.AddCell(id, c.Book)
		}
	}

	w.schedule()
	return w
}

// cellLoop is one cell's periodic machinery. Its handlers are bound
// once, in schedule, so the burst and RACH events that re-arm
// themselves every period allocate nothing.
type cellLoop struct {
	id                    int
	burst, burstEnd, rach sim.Handler
	// The listen in flight: the burst it measures and the receive
	// beam. A burst ends before the cell's next one starts, so one
	// slot per cell suffices.
	start sim.Time
	rx    antenna.BeamID
}

// schedule arms the periodic machinery: per-cell bursts, RACH
// occasions, and housekeeping.
func (w *World) schedule() {
	for id := range w.Cells {
		l := &cellLoop{id: id}
		l.burst = func() { w.onBurstStart(l) }
		l.burstEnd = func() { w.onBurstEnd(l) }
		l.rach = func() { w.onRachOccasion(l) }
		// First burst of each cell.
		w.Engine.At(w.Cells[id].Sched.NextBurst(0), l.burst)
		// RACH occasions.
		w.Engine.At(w.rachOffsets[id], l.rach)
	}
	w.Engine.Every(w.P.TickPeriod, func() {
		for _, c := range w.Cells {
			c.Tick(w.Engine.Now())
		}
	})
}

// onBurstStart handles the start of one cell's sync burst: plan,
// arbitrate the radio, and arm the measurement at the burst's end.
func (w *World) onBurstStart(l *cellLoop) {
	id := l.id
	c := w.Cells[id]
	now := w.Engine.Now()
	end := c.Sched.BurstEnd(now)
	// Schedule the next burst first so errors below cannot silence us.
	w.Engine.At(now+c.Sched.Period, l.burst)

	rx, listen := w.Tracker.PlanBurst(now, id)
	if !listen || !w.Device.Book.Valid(rx) {
		return
	}
	// Serving priority: a non-serving listen must not steal a slot that
	// overlaps the serving cell's next burst.
	if id != w.Tracker.ServingCell() {
		if sc := w.Cells[w.Tracker.ServingCell()]; sc != nil {
			sNext := sc.Sched.NextBurst(now)
			if sNext < end {
				w.SkippedBursts++
				return
			}
		}
	}
	if !w.Device.Reserve(now, end) {
		w.SkippedBursts++
		return
	}
	if id == w.Tracker.ServingCell() {
		w.ServingListens++
	} else {
		w.NeighborListens++
	}
	l.start, l.rx = now, rx
	w.Engine.At(end, l.burstEnd)
}

// onBurstEnd measures the burst just heard and feeds the protocol.
func (w *World) onBurstEnd(l *cellLoop) {
	ms := w.Device.MeasureBurst(l.id, l.start, l.rx)
	w.Tracker.OnBurst(w.Engine.Now(), l.id, ms)
	w.drainTracker()
}

// onRachOccasion polls the tracker's random access machine when the
// occasion belongs to its handover target and timing is known.
func (w *World) onRachOccasion(l *cellLoop) {
	id := l.id
	now := w.Engine.Now()
	w.Engine.At(now+w.Tracker.Cfg.Rach.OccasionPeriod, l.rach)
	if w.Tracker.HandoverTarget() != id {
		return
	}
	if !w.Device.KnowsTiming(id, now) {
		return // cannot transmit into an occasion it cannot place in time
	}
	w.Tracker.PollRach(now)
	w.drainTracker()
}

// drainTracker converts protocol actions into MAC messages and applies
// uplink physics.
func (w *World) drainTracker() {
	now := w.Engine.Now()
	for _, a := range w.Tracker.Actions() {
		switch {
		case a.SwitchReq != nil:
			r := a.SwitchReq
			msg := mac.Message{
				Header: mac.Header{Type: mac.TypeBeamSwitchReq, UE: w.Device.ID},
				Payload: mac.BeamSwitchReq{
					CurrentTx:  int16(r.CurrentTx),
					ProposedTx: int16(r.ProposedTx),
					RSSdBmQ8:   mac.QuantizeDBm(r.RSSdBm),
				}.Marshal(),
			}
			_, rxBeam := w.Tracker.Serving().Beams()
			w.sendUplink(now, r.Cell, r.CurrentTx, rxBeam, msg)
		case a.Report != nil:
			r := a.Report
			msg := mac.Message{
				Header: mac.Header{Type: mac.TypeMeasReport, UE: w.Device.ID},
				Payload: mac.MeasReport{
					TxBeam: int16(r.Tx), RxBeam: int16(r.Rx),
					RSSdBmQ8: mac.QuantizeDBm(r.RSSdBm),
				}.Marshal(),
			}
			w.sendUplink(now, r.Cell, r.Tx, r.Rx, msg)
		case a.Preamble != nil:
			w.sendPreamble(now, a.Preamble)
		case a.ConnReq != nil:
			r := a.ConnReq
			msg := mac.Message{
				Header: mac.Header{Type: mac.TypeConnReq, UE: w.Device.ID},
				Payload: mac.Context{
					UE: w.Device.ID, SourceCell: uint16(r.Source), BearerID: 1,
				}.Marshal(),
			}
			w.sendUplink(now, r.Cell, r.BSBeam, r.UEBeam, msg)
		}
	}
}

// sendUplink delivers a control message if the uplink closes.
func (w *World) sendUplink(now sim.Time, cellID int, cellBeam, ueBeam antenna.BeamID, msg mac.Message) {
	c := w.Cells[cellID]
	if c == nil || !c.Book.Valid(cellBeam) {
		w.UplinkDrops++
		return
	}
	_, ok := w.Device.UplinkSNR(now, cellID, cellBeam, ueBeam)
	if !ok {
		w.UplinkDrops++
		return
	}
	msg.Seq = w.seq
	w.seq++
	// Wire-format round trip: keeps message contents honest.
	parsed, err := mac.Unmarshal(msg.Marshal())
	if err != nil {
		w.UplinkDrops++
		return
	}
	c.OnUplink(now, parsed)
	w.drainCell(cellID)
}

// sendPreamble performs Msg1 with the preamble detector.
func (w *World) sendPreamble(now sim.Time, p *core.PreambleAction) {
	w.PreamblesSent++
	c := w.Cells[p.Cell]
	ci := w.Device.Cells[p.Cell]
	if c == nil || ci == nil || !c.Book.Valid(p.BSBeam) {
		return
	}
	snr, _ := w.Device.UplinkSNR(now, p.Cell, p.BSBeam, p.UEBeam)
	if !ci.Link.PreambleDetected(snr) {
		return
	}
	w.PreamblesHeard++
	msg := mac.Message{
		Header:  mac.Header{Type: mac.TypePreamble, UE: w.Device.ID},
		Payload: mac.MeasReport{TxBeam: int16(p.BSBeam)}.Marshal(),
	}
	c.OnUplink(now, msg)
	w.drainCell(p.Cell)
}

// drainCell schedules the cell's pending downlink messages.
func (w *World) drainCell(cellID int) {
	c := w.Cells[cellID]
	for _, d := range c.Outbox() {
		d := d
		at := d.At
		if at < w.Engine.Now() {
			at = w.Engine.Now()
		}
		w.Engine.At(at, func() { w.deliverDownlink(cellID, d) })
	}
}

// deliverDownlink applies downlink physics and feeds the tracker.
func (w *World) deliverDownlink(cellID int, d cell.Downlink) {
	now := w.Engine.Now()
	ueBeam := w.ueBeamToward(cellID)
	if !w.Device.Book.Valid(ueBeam) {
		w.DownlinkDrops++
		return
	}
	m, ok := w.Device.DownlinkMeasure(now, cellID, d.TxBeam, ueBeam)
	if !ok || !m.Detected {
		w.DownlinkDrops++
		return
	}
	d.Msg.Cell = uint16(cellID)
	w.Tracker.OnDownlink(now, d.Msg)
	w.drainTracker()
}

// ueBeamToward returns the beam the mobile currently points at a cell:
// its serving receive beam, or the silently tracked beam for the
// neighbor, or none.
func (w *World) ueBeamToward(cellID int) antenna.BeamID {
	if cellID == w.Tracker.ServingCell() {
		_, rx := w.Tracker.Serving().Beams()
		return rx
	}
	if st, nc, _, nrx := w.Tracker.Neighbor(); st == core.NTracking && nc == cellID {
		return nrx
	}
	return antenna.NoBeam
}

// FetchContext implements cell.Backhaul with the configured one-way
// delay in each direction.
func (w *World) FetchContext(src int, ueID uint16, done func(mac.Context, bool)) {
	s := w.Cells[src]
	if s == nil {
		done(mac.Context{}, false)
		return
	}
	w.Engine.After(w.P.BackhaulDelay, func() {
		ctx, ok := s.TakeContext(ueID)
		w.Engine.After(w.P.BackhaulDelay, func() {
			done(ctx, ok)
			// The completion ran inside an engine event, not an uplink:
			// whatever the requesting cell queued must still go out.
			for id := range w.Cells {
				w.drainCell(id)
			}
		})
	})
}

// Run advances the world to the given time.
func (w *World) Run(until sim.Time) { w.Engine.RunUntil(until) }

// AlignmentError returns the current angular error (radians) between
// the mobile's receive beam toward a cell and the true bearing. Used
// by experiments to quantify "beam held aligned".
func (w *World) AlignmentError(cellID int) float64 {
	beam := w.ueBeamToward(cellID)
	if !w.Device.Book.Valid(beam) {
		return geom.TwoPi // no beam at all
	}
	ci := w.Device.Cells[cellID]
	pose := w.Device.Pose(w.Engine.Now())
	return geom.AngleDist(w.Device.Book.Boresight(beam), pose.LocalBearingTo(ci.Pose.Pos))
}
