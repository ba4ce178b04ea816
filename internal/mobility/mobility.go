// Package mobility provides the trajectory models of the paper's
// three evaluation scenarios — human walk (1.4 m/s), device rotation
// (120°/s), and vehicular motion (20 mph, or any speed for the highway
// family) — plus a static pose.
//
// A Model is a pure function from time to Pose: given the same seed it
// always returns the same trajectory, and it may be sampled at
// arbitrary times in any order. Human-motion irregularity (gait sway,
// hand jitter) is modelled with fixed-phase sinusoids drawn at
// construction, which keeps the pure-function property.
//
// Every Model is also smooth: position and facing change continuously,
// with bounded rates, so over one 4 ms sync burst a pose is linear in
// time to well under a milliradian. The radio front end relies on this
// to evaluate the pose once at each end of a burst and interpolate the
// beacons in between; a model with jumps in facing or position would
// break that precondition.
package mobility

import (
	"math"

	"silenttracker/internal/geom"
	"silenttracker/internal/rng"
)

// WalkSpeed is the paper's pedestrian speed, m/s.
const WalkSpeed = 1.4

// VehicularSpeed is the paper's vehicular speed: 20 mph in m/s.
const VehicularSpeed = 8.9408

// RotationRate is the paper's device rotation rate, rad/s (120°/s).
var RotationRate = geom.Deg(120)

// Model yields the mobile's pose (position + facing) at any time.
type Model interface {
	PoseAt(t float64) geom.Pose
}

// Static is a motionless pose, useful in tests and as a base-station
// "trajectory".
type Static geom.Pose

// PoseAt implements Model.
func (s Static) PoseAt(t float64) geom.Pose { return geom.Pose(s) }

// sway is a small quasi-periodic angular or linear disturbance built
// from two incommensurate sinusoids with random phases.
type sway struct {
	amp1, freq1, phase1 float64
	amp2, freq2, phase2 float64
}

func newSway(src *rng.Source, amp, baseFreq float64) sway {
	return sway{
		amp1: amp, freq1: baseFreq * src.Uniform(0.9, 1.1), phase1: src.Uniform(0, geom.TwoPi),
		amp2: amp * 0.4, freq2: baseFreq * src.Uniform(1.7, 2.3), phase2: src.Uniform(0, geom.TwoPi),
	}
}

func (s sway) at(t float64) float64 {
	return s.amp1*math.Sin(geom.TwoPi*s.freq1*t+s.phase1) +
		s.amp2*math.Sin(geom.TwoPi*s.freq2*t+s.phase2)
}

// Walk is a pedestrian walking a straight line with gait-induced
// facing sway and slight lateral weave — the paper's "human walk at
// cell edge" scenario.
type Walk struct {
	Start   geom.Vec
	Heading float64 // direction of travel, radians; fixed at construction
	Speed   float64 // m/s

	faceSway sway // radians of facing oscillation
	latSway  sway // meters of lateral weave

	// Unit vectors along Heading and Heading+π/2, evaluated once:
	// PoseAt scales them exactly as geom.FromPolar would.
	along, lateral geom.Vec
}

// NewWalk builds a walk at the paper's 1.4 m/s with typical human gait
// disturbance (≈8° facing sway at step frequency ~1.8 Hz).
func NewWalk(start geom.Vec, heading float64, seed int64) *Walk {
	src := rng.Stream(seed, "mobility/walk")
	return &Walk{
		Start:    start,
		Heading:  heading,
		Speed:    WalkSpeed,
		faceSway: newSway(src, geom.Deg(8), 0.9),
		latSway:  newSway(src, 0.08, 1.8),
		along:    geom.FromPolar(1, heading),
		lateral:  geom.FromPolar(1, heading+math.Pi/2),
	}
}

// PoseAt implements Model.
func (w *Walk) PoseAt(t float64) geom.Pose {
	along := scaleDir(w.along, w.Speed*t)
	lateral := scaleDir(w.lateral, w.latSway.at(t))
	return geom.Pose{
		Pos:    w.Start.Add(along).Add(lateral),
		Facing: geom.WrapAngle(w.Heading + w.faceSway.at(t)),
	}
}

// Rotation is a stationary device spinning at a constant angular rate
// with small hand jitter — the paper's device-rotation scenario.
type Rotation struct {
	Pos    geom.Vec
	Rate   float64 // rad/s
	Phase  float64 // initial facing
	jitter sway
}

// NewRotation builds the paper's 120°/s rotation at a fixed position.
func NewRotation(pos geom.Vec, seed int64) *Rotation {
	src := rng.Stream(seed, "mobility/rotation")
	return &Rotation{
		Pos:    pos,
		Rate:   RotationRate,
		Phase:  src.Uniform(0, geom.TwoPi),
		jitter: newSway(src, geom.Deg(2), 3),
	}
}

// PoseAt implements Model.
func (r *Rotation) PoseAt(t float64) geom.Pose {
	return geom.Pose{
		Pos:    r.Pos,
		Facing: geom.WrapAngle(r.Phase + r.Rate*t + r.jitter.at(t)),
	}
}

// Vehicle is straight-line vehicular motion at 20 mph with slight
// suspension-induced heading jitter.
type Vehicle struct {
	Start   geom.Vec
	Heading float64 // direction of travel, radians; fixed at construction
	Speed   float64
	jitter  sway
	along   geom.Vec // unit vector along Heading
}

// NewVehicle builds the paper's 20 mph vehicular trajectory.
func NewVehicle(start geom.Vec, heading float64, seed int64) *Vehicle {
	return NewVehicleSpeed(start, heading, VehicularSpeed, seed)
}

// NewVehicleSpeed builds a vehicular trajectory at an arbitrary speed
// (m/s) — the highway scenario family sweeps this. The jitter draw
// order matches NewVehicle exactly, so NewVehicleSpeed(…,
// VehicularSpeed, seed) is identical to NewVehicle(…, seed).
func NewVehicleSpeed(start geom.Vec, heading, speed float64, seed int64) *Vehicle {
	src := rng.Stream(seed, "mobility/vehicle")
	return &Vehicle{
		Start:   start,
		Heading: heading,
		Speed:   speed,
		jitter:  newSway(src, geom.Deg(1.5), 1.1),
		along:   geom.FromPolar(1, heading),
	}
}

// PoseAt implements Model.
func (v *Vehicle) PoseAt(t float64) geom.Pose {
	return geom.Pose{
		Pos:    v.Start.Add(scaleDir(v.along, v.Speed*t)),
		Facing: geom.WrapAngle(v.Heading + v.jitter.at(t)),
	}
}

// scaleDir is geom.FromPolar(r, θ) given the unit vector (cos θ, sin θ)
// evaluated once: the same products, so the same bits.
func scaleDir(dir geom.Vec, r float64) geom.Vec {
	return geom.Vec{X: r * dir.X, Y: r * dir.Y}
}
