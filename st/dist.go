package st

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"silenttracker/internal/campaign"
)

// This file is the distributed-execution surface: the seam a
// coordinator plugs into a run (Distributor, WithDistributed), the
// worker-side primitives (Session.Units, Session.ComputeUnits), and
// the lease-protocol wire vocabulary (LeaseRequest / LeaseGrant /
// UnitReport / Heartbeat) shared by the coordinator's /dist/ routes
// and the stworker fleet. Like the job types, they live in the public
// package so a worker needs nothing but these types and net/http.
//
// The protocol rests on two invariants the campaign layer already
// guarantees. First, unit order is deterministic: every party that
// expands the same resolved spec sees the same unit list, so a lease
// can name units by index range instead of shipping cells. Second,
// units are content-addressed: two workers racing the same unit write
// the same entry under the same key, so duplicated work (expired
// leases, stolen ranges) is idempotent and the coordinator's fold —
// which reads units from the shared store in index order — is
// at-most-once by construction.

// UnitRef identifies one unit of an expanded spec — one block of one
// trial of one cell: its position in deterministic fold order, its
// cell/trial/block coordinates, resolved seed, and content address in
// the result store. Block is 0 for every unit of a spec whose trials
// are not split.
type UnitRef struct {
	Index int    `json:"index"`
	Cell  int    `json:"cell"`
	Trial int    `json:"trial"`
	Block int    `json:"block,omitempty"`
	Seed  int64  `json:"seed"`
	Hash  string `json:"hash,omitempty"`
}

// Distributor schedules a run's expanded units onto external workers.
// Distribute is called between the expand and execute phases with the
// job shape (resolved seed/trials/quick — enough for a worker to
// rebuild the identical spec) and the full unit list; it should block
// until the units' results are in the shared store. It need not
// succeed for every unit: whatever is missing afterwards — lost
// writes, stragglers — is computed locally by the engine's cache-first
// sweep, which is also what folds, so results are byte-identical no
// matter how much of the work the distributor placed. A
// non-cancellation error degrades the run to fully local execution.
type Distributor interface {
	Distribute(ctx context.Context, job JobRequest, units []UnitRef) error
}

// WithDistributed routes a run's trial units through d — typically a
// coordinator leasing unit ranges to a fleet of stworker processes —
// instead of computing them all locally. Requires a shared result
// store (the data path between workers and the fold); a distributed
// session without one is a build-time error.
func WithDistributed(d Distributor) Option {
	return func(s *settings) { s.dist = d }
}

// Units expands the session's sweep into its deterministic unit list
// — the coordination currency of the lease protocol. Its
// UnitsFingerprint is the spec fingerprint a worker uses to verify it
// rebuilt the coordinator's exact spec before computing anything.
func (s *Session) Units() []UnitRef {
	units := s.spec.Expand(true)
	out := make([]UnitRef, len(units))
	for i, u := range units {
		out[i] = UnitRef(u)
	}
	return out
}

// UnitsFingerprint condenses an expansion into one spec fingerprint:
// a SHA-256 over every unit's content hash in index order. Two
// parties agree on it only if they expanded the same spec to the same
// unit list — skew anywhere in the sweep changes it, not just in the
// first cell.
func UnitsFingerprint(units []UnitRef) string {
	h := sha256.New()
	for _, u := range units {
		h.Write([]byte(u.Hash))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// UnitStats summarises a ComputeUnits call.
type UnitStats struct {
	// Computed/Cached split the requested units by whether the trial
	// body ran or the store already held the result.
	Computed int `json:"computed"`
	Cached   int `json:"cached"`
	// PutFailed counts computed units whose store write failed — those
	// results never reached the shared store and will recompute
	// somewhere else.
	PutFailed int `json:"put_failed,omitempty"`
}

// ComputeUnits executes the units at the given expansion indices —
// cache-first, across the session's worker pool — writing results to
// the session's store without folding anything. This is the worker
// half of distributed execution; the coordinator's fold reads the
// results back from the shared store. Indices may overlap with other
// workers': identical units produce identical store entries, so races
// are harmless. Cancellation stops dispatching; in-flight units
// finish and persist.
func (s *Session) ComputeUnits(ctx context.Context, indices []int) (UnitStats, error) {
	eng := campaign.Engine{Store: s.store, Workers: s.cfg.workers, Obs: s.obs}
	es, err := eng.ExecuteUnits(ctx, s.spec, indices)
	return UnitStats{Computed: es.Computed, Cached: es.Cached, PutFailed: es.PutFailed}, err
}

// jobRequest is the session's resolved job shape: what a distributor
// hands to workers so they rebuild this exact spec. Seed and Trials
// are the spec's resolved values (not the option-level zero-defaults),
// so a worker applying them as overrides lands on the same sweep.
func (s *Session) jobRequest() JobRequest {
	return JobRequest{
		Experiment: s.def.Name,
		Seed:       s.spec.Seed,
		Trials:     s.spec.Trials,
		Quick:      s.cfg.quick,
	}
}

// --- Lease-protocol wire types (POST /dist/lease, /dist/complete,
// /dist/heartbeat) ---

// UnitRange is a half-open index range [Start, End) into a run's unit
// list. Leases name work by range so a grant of thousands of units is
// a few integers on the wire, keeping per-unit chatter off the
// coordinator hot path.
type UnitRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of units in the range.
func (r UnitRange) Len() int { return r.End - r.Start }

// Indices appends the range's unit indices to dst.
func (r UnitRange) Indices(dst []int) []int {
	for i := r.Start; i < r.End; i++ {
		dst = append(dst, i)
	}
	return dst
}

// String renders the range as "[start,end)".
func (r UnitRange) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// LeaseRequest asks the coordinator for a batch of units to compute.
type LeaseRequest struct {
	// Worker names the requesting process (stable across its leases);
	// the coordinator keys in-flight accounting and heartbeats by it.
	Worker string `json:"worker"`
	// Max caps the units granted (0 accepts the coordinator's batch
	// default).
	Max int `json:"max,omitempty"`
}

// LeaseGrant is the coordinator's reply to a lease request. An empty
// Units with Run == "" means no work is available right now; the
// worker should retry after RetryAfterMS.
type LeaseGrant struct {
	// Run identifies the coordinator-side run the units belong to;
	// completions and heartbeats echo it. Lease identifies this grant
	// within the run (completions echo it so the coordinator can
	// retire the exact lease, even after stealing split the range).
	Run   string `json:"run,omitempty"`
	Lease string `json:"lease,omitempty"`
	// Job is the resolved job shape: the worker rebuilds the spec from
	// it (same experiment, seed, trials, quick ⇒ same unit list).
	Job *JobRequest `json:"job,omitempty"`
	// Fingerprint is the UnitsFingerprint of the run's full expansion.
	// A worker whose rebuilt spec fingerprints differently is running
	// different code (version skew) and must refuse the run rather
	// than poison the store.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Units are the leased ranges, due within TTLMS.
	Units []UnitRange `json:"units,omitempty"`
	TTLMS int64       `json:"ttl_ms,omitempty"`
	// RetryAfterMS paces the worker's next lease request when no work
	// was granted.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// UnitReport tells the coordinator a leased batch is done: the units'
// results are in the shared store (or Error says why not — the
// coordinator re-leases reported-failed units elsewhere).
type UnitReport struct {
	Worker string      `json:"worker"`
	Run    string      `json:"run"`
	Lease  string      `json:"lease,omitempty"`
	Units  []UnitRange `json:"units"`
	Error  string      `json:"error,omitempty"`
}

// Heartbeat keeps a worker's leases alive between completions. Runs
// lists the runs the worker is currently computing for.
type Heartbeat struct {
	Worker string   `json:"worker"`
	Runs   []string `json:"runs,omitempty"`
}

// HeartbeatAck is the coordinator's reply: Expired lists runs of the
// worker's leases that have already been re-leased (the worker should
// abandon that work — completing it is harmless but wasted).
type HeartbeatAck struct {
	Expired []string `json:"expired,omitempty"`
}
