package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Store is the pluggable result-store interface: a content-addressed
// map from unit hash to Metrics. The engine executes read-through
// (Get before computing, Put after), so any Store that honours the
// contract below yields byte-identical tables — backends may only
// change how many units recompute, never what they fold to.
//
// Contract:
//   - Get returns (metrics, true) only for a well-formed entry that
//     was previously Put under the same hash. A missing, torn, or
//     otherwise undecodable entry is (nil, false) — never an error,
//     never a panic: the engine just recomputes the unit.
//   - Put must be atomic with respect to concurrent Gets of the same
//     hash (no reader may observe a torn entry).
//   - Both must be safe for concurrent use by many goroutines.
//   - Stats returns one TierStats per tier (composite stores return
//     one per member, in tier order). Counters are cumulative over
//     the store's lifetime; the engine diffs snapshots per run.
//   - Close releases resources; a closed store need not serve Gets.
type Store interface {
	Get(hash string) (Metrics, bool)
	Put(hash string, m Metrics) error
	Stats() []TierStats
	Close() error
}

// Degradable is an optional Store refinement for backends that can
// tell "working" from "limping": an open or half-open breaker, a tier
// whose member is down. Health endpoints use it to report degraded
// while the store still serves (degraded ≠ dead — Gets keep working,
// they just miss more).
type Degradable interface {
	Degraded() bool
}

// StoreDegradedState reports whether s is currently degraded: false
// for stores that don't implement Degradable (a store that cannot
// tell is presumed healthy, matching the engine's degrade-to-miss
// stance).
func StoreDegradedState(s Store) bool {
	if d, ok := s.(Degradable); ok {
		return d.Degraded()
	}
	return false
}

// TierStats is one store tier's cumulative counters.
type TierStats struct {
	// Tier names the backend: "mem", "disk", "remote", or whatever a
	// custom Store reports.
	Tier string `json:"tier"`
	// Hits and Misses count Gets that found / did not find an entry.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Corrupt counts entries that were present but undecodable (torn
	// write, hand-edited file, an entry in an older format). Served as
	// misses to the caller, but distinguished here: a growing corrupt
	// count means the backend is damaging entries, not merely cold.
	Corrupt int64 `json:"corrupt,omitempty"`
	// Evicted counts entries dropped to stay inside a size budget.
	Evicted int64 `json:"evicted,omitempty"`
	// Errors counts backend failures (network, disk) that degraded to
	// a miss or a dropped write.
	Errors int64 `json:"errors,omitempty"`
	// Retries counts extra attempts a RetryStore spent recovering from
	// retryable failures (attempts beyond each op's first).
	Retries int64 `json:"retries,omitempty"`
	// BreakerOpens counts closed→open (and half-open→open) transitions
	// of a BreakerStore guarding the tier.
	BreakerOpens int64 `json:"breaker_opens,omitempty"`
	// Shorted counts ops an open breaker short-circuited: Gets served
	// as instant misses and Puts dropped without touching the backend.
	Shorted int64 `json:"shorted,omitempty"`
}

// String renders the tier in the compact stderr-stats form, e.g.
// "mem[hit=3 miss=7 evict=2]". Zero-valued corrupt/evict/error
// counters are omitted so the common case stays short.
func (t TierStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[hit=%d miss=%d", t.Tier, t.Hits, t.Misses)
	if t.Corrupt != 0 {
		fmt.Fprintf(&b, " corrupt=%d", t.Corrupt)
	}
	if t.Evicted != 0 {
		fmt.Fprintf(&b, " evict=%d", t.Evicted)
	}
	if t.Errors != 0 {
		fmt.Fprintf(&b, " err=%d", t.Errors)
	}
	if t.Retries != 0 {
		fmt.Fprintf(&b, " retry=%d", t.Retries)
	}
	if t.BreakerOpens != 0 {
		fmt.Fprintf(&b, " open=%d", t.BreakerOpens)
	}
	if t.Shorted != 0 {
		fmt.Fprintf(&b, " short=%d", t.Shorted)
	}
	b.WriteByte(']')
	return b.String()
}

// sub returns the counter deltas t - o (same tier).
func (t TierStats) sub(o TierStats) TierStats {
	return TierStats{
		Tier:         t.Tier,
		Hits:         t.Hits - o.Hits,
		Misses:       t.Misses - o.Misses,
		Corrupt:      t.Corrupt - o.Corrupt,
		Evicted:      t.Evicted - o.Evicted,
		Errors:       t.Errors - o.Errors,
		Retries:      t.Retries - o.Retries,
		BreakerOpens: t.BreakerOpens - o.BreakerOpens,
		Shorted:      t.Shorted - o.Shorted,
	}
}

// tierDelta subtracts a before-run stats snapshot from an after-run
// one, yielding per-run tier counters. If the tier list changed shape
// mid-run (it cannot for the built-in stores) the after snapshot is
// returned as-is rather than guessing an alignment.
func tierDelta(before, after []TierStats) []TierStats {
	if len(before) != len(after) {
		return after
	}
	out := make([]TierStats, len(after))
	for i := range after {
		if after[i].Tier != before[i].Tier {
			return after
		}
		out[i] = after[i].sub(before[i])
	}
	return out
}

// counters is the shared atomic counter block behind every built-in
// store's Stats.
type counters struct {
	hits, misses, corrupt, evicted, errors atomic.Int64
}

func (c *counters) snapshot(tier string) TierStats {
	return TierStats{
		Tier:    tier,
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Evicted: c.evicted.Load(),
		Errors:  c.errors.Load(),
	}
}

// Tiered composes stores into a read-through / write-through
// hierarchy, fastest tier first (mem → disk → remote). Get tries
// tiers in order and backfills every faster tier on a hit, so hot
// units migrate toward the front; Put writes through to every tier.
// Per-tier counters stay with the member stores — Stats concatenates
// them in tier order.
type Tiered struct {
	tiers []Store
}

// NewTiered builds a tiered store over the given tiers, fastest
// first. With a single tier it is a transparent wrapper; with none,
// every Get misses and every Put is dropped.
func NewTiered(tiers ...Store) *Tiered {
	return &Tiered{tiers: tiers}
}

// Get tries each tier in order. A hit in a slower tier is written
// back into every faster one (a failed backfill is ignored: it only
// costs a future re-read, never correctness).
func (t *Tiered) Get(hash string) (Metrics, bool) {
	for i, s := range t.tiers {
		if m, ok := s.Get(hash); ok {
			for j := 0; j < i; j++ {
				_ = t.tiers[j].Put(hash, m)
			}
			return m, true
		}
	}
	return nil, false
}

// Put writes the entry through to every tier. Tier failures are
// joined but independent: one failed tier never blocks the others.
func (t *Tiered) Put(hash string, m Metrics) error {
	var errs []error
	for _, s := range t.tiers {
		if err := s.Put(hash, m); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Stats concatenates the member tiers' stats in tier order.
func (t *Tiered) Stats() []TierStats {
	out := make([]TierStats, 0, len(t.tiers))
	for _, s := range t.tiers {
		out = append(out, s.Stats()...)
	}
	return out
}

// Degraded reports whether any member tier is degraded: a hierarchy
// limps as soon as one backend does, even though the healthy tiers
// keep it serving.
func (t *Tiered) Degraded() bool {
	for _, s := range t.tiers {
		if StoreDegradedState(s) {
			return true
		}
	}
	return false
}

// Close closes every tier, joining their errors.
func (t *Tiered) Close() error {
	var errs []error
	for _, s := range t.tiers {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
