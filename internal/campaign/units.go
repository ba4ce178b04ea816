package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"silenttracker/internal/runner"
)

// UnitRef identifies one unit of an expanded spec without carrying
// its result: the coordination currency of distributed execution. A
// unit is one block of one trial of one cell. Unit order (Index) is
// cell-major, then trial, then block — the exact sequence the engine
// folds in — so any subset of units can be computed anywhere, in any
// order, and the fold still sees a serial loop over (cell, trial,
// block).
type UnitRef struct {
	// Index is the unit's position in spec expansion order.
	Index int `json:"index"`
	// Cell indexes into Spec.Cells(); Trial is the trial within it and
	// Block the block within the trial (always 0 for an unblocked spec).
	Cell  int `json:"cell"`
	Trial int `json:"trial"`
	Block int `json:"block,omitempty"`
	// Seed is the trial's resolved seed under the spec's schedule.
	Seed int64 `json:"seed"`
	// Hash is the unit's content address in the result store ("" when
	// expansion ran without hashing, i.e. store-less).
	Hash string `json:"hash,omitempty"`
}

// Expand enumerates the spec's units in fold order. hash
// controls whether each unit is content-addressed (the store key
// computation is the expensive part of expansion; store-less runs
// skip it).
func (s *Spec) Expand(hash bool) []UnitRef {
	return expandUnits(s, s.Cells(), hash)
}

// expandUnits is Expand over pre-computed cells, shared with the
// engine's expand phase so RunCtx enumerates cells exactly once.
func expandUnits(s *Spec, cells []Cell, hash bool) []UnitRef {
	units := make([]UnitRef, 0, len(cells)*s.Trials)
	for ci, cell := range cells {
		nb := s.blocks(cell)
		for t := 0; t < s.Trials; t++ {
			for b := 0; b < nb; b++ {
				u := UnitRef{Index: len(units), Cell: ci, Trial: t, Block: b, Seed: s.TrialSeed(t)}
				if hash {
					u.Hash = s.UnitKey(cell, t, b).Hash()
				}
				units = append(units, u)
			}
		}
	}
	return units
}

// ExecStats summarises an ExecuteUnits call: how many of the
// requested units computed, were already in the store, and failed to
// persist.
type ExecStats struct {
	Computed  int `json:"computed"`
	Cached    int `json:"cached"`
	PutFailed int `json:"put_failed,omitempty"`
}

// ExecuteUnits runs the spec's units at the given expansion indices —
// cache-first against the engine's store, across the engine's worker
// pool — without folding anything. This is the worker half of
// distributed execution: a remote process executes its leased subset
// and the results reach the coordinator through the shared store, not
// a return value. Indices may arrive in any order and may overlap
// between callers (racing workers): identical units have identical
// content hashes and identical results, so duplicated work is
// idempotent by construction.
//
// Cancelled executions stop dispatching; in-flight units finish and
// persist, and the error is ctx.Err(). An out-of-range index is a
// version-skew error (the caller expanded a different spec) and fails
// before any unit runs.
func (e *Engine) ExecuteUnits(ctx context.Context, spec *Spec, indices []int) (ExecStats, error) {
	cells := spec.Cells()
	units := expandUnits(spec, cells, e.Store != nil)
	for _, idx := range indices {
		if idx < 0 || idx >= len(units) {
			return ExecStats{}, fmt.Errorf("campaign: unit index %d out of range (spec %q has %d units)",
				idx, spec.Name, len(units))
		}
	}
	var mu sync.Mutex
	var st ExecStats
	ins := newEngineObs(e.Obs)
	_, err := runner.MapCtxObserved(ctx, len(indices), e.Workers, func(i int) struct{} {
		u := units[indices[i]]
		var t0 time.Time
		if ins != nil {
			t0 = time.Now()
		}
		if e.Store != nil {
			if _, ok := e.Store.Get(u.Hash); ok {
				if ins != nil {
					ins.observeUnit(true, time.Since(t0))
				}
				mu.Lock()
				st.Cached++
				mu.Unlock()
				return struct{}{}
			}
		}
		m := spec.Trial(cells[u.Cell], u.Seed, u.Block)
		var putErr error
		if e.Store != nil {
			putErr = e.Store.Put(u.Hash, m)
		}
		if ins != nil {
			ins.observeUnit(false, time.Since(t0))
		}
		mu.Lock()
		st.Computed++
		if putErr != nil {
			st.PutFailed++
		}
		mu.Unlock()
		return struct{}{}
	}, ins.pool())
	return st, err
}
