// Package campaign is the declarative sweep subsystem: a Spec names a
// grid of axes (scenario × codebook × protocol knob …), a per-cell
// trial count and a seed schedule, and the engine expands the grid
// into deterministic trial units, executes them on the
// internal/runner worker pool, and folds per-cell results with
// internal/stats into the same row structs the hand-written
// experiment runners produced.
//
// Every unit — one block of one trial of one cell — is keyed by a
// content hash of (spec identity, cell, seed, block, code-relevant
// config) into a pluggable result store (store.go): an on-disk cache
// (cache.go), a size-budgeted in-memory LRU hot tier (mem.go), a
// shared remote store (http.go, served by campaign/storehttp), or any
// read-through/write-through Tiered mix of them. A warm re-run — or
// a new sweep that shares cells with a previous one — only computes
// the delta. The engine preserves the runner's determinism contract:
// results are folded in unit order, so cold, warm, and
// any-worker-count runs of the same spec render byte-identical
// tables.
package campaign

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"silenttracker/internal/stats"
)

// Axis is one dimension of a sweep grid. Values are symbolic strings
// (scenario names, formatted knob settings); the trial body parses
// them back with Cell's typed accessors. Keeping axis values textual
// makes cells self-describing in cache keys, `describe` output, and
// JSON exports.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// AxisValue is one coordinate of a cell.
type AxisValue struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Cell is one point of the sweep grid: an ordered assignment of a
// value to every axis. Order follows the spec's axis order and is
// part of the cell's cache identity.
type Cell []AxisValue

// Get returns the cell's value on the named axis ("" if absent).
func (c Cell) Get(axis string) string {
	for _, av := range c {
		if av.Axis == axis {
			return av.Value
		}
	}
	return ""
}

// Float parses the cell's value on the named axis as a float64.
func (c Cell) Float(axis string) float64 {
	v, err := strconv.ParseFloat(c.Get(axis), 64)
	if err != nil {
		panic(fmt.Sprintf("campaign: cell axis %q = %q is not a float", axis, c.Get(axis)))
	}
	return v
}

// Int parses the cell's value on the named axis as an int.
func (c Cell) Int(axis string) int {
	v, err := strconv.Atoi(c.Get(axis))
	if err != nil {
		panic(fmt.Sprintf("campaign: cell axis %q = %q is not an int", axis, c.Get(axis)))
	}
	return v
}

// String renders the cell as "axis=value,axis=value".
func (c Cell) String() string {
	var b strings.Builder
	for i, av := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(av.Axis)
		b.WriteByte('=')
		b.WriteString(av.Value)
	}
	return b.String()
}

// Metrics is what one trial unit produces: named observation vectors.
// A vector entry is appended per observation, so per-trial samples
// (one latency, many alignment errors) and per-trial rate records
// (0/1) use the same shape, and concatenating vectors across blocks
// and trials in unit order reproduces exactly the observation
// sequence the old serial accumulators saw. Metrics round-trip
// through JSON without loss (Go marshals float64
// shortest-round-trip), which is what makes warm cache runs
// byte-identical to cold ones.
type Metrics map[string][]float64

// NewMetrics returns an empty metrics set.
func NewMetrics() Metrics { return Metrics{} }

// Add appends observations to the named vector.
func (m Metrics) Add(name string, vs ...float64) {
	m[name] = append(m[name], vs...)
}

// Record appends a 0/1 rate observation.
func (m Metrics) Record(name string, ok bool) {
	if ok {
		m.Add(name, 1)
	} else {
		m.Add(name, 0)
	}
}

// Count stores an integer counter as a single observation.
func (m Metrics) Count(name string, n int) { m.Add(name, float64(n)) }

// Scalar returns the first observation of the named vector (0 if
// absent) — the accessor for metrics recorded once per trial.
func (m Metrics) Scalar(name string) float64 {
	if vs := m[name]; len(vs) > 0 {
		return vs[0]
	}
	return 0
}

// Append concatenates o's vectors onto m's, name by name. The
// appended values are copied, so m never aliases o's slices; the
// engine folds the blocks of one trial this way.
func (m Metrics) Append(o Metrics) {
	for name, vs := range o {
		m[name] = append(m[name], vs...)
	}
}

// Names returns the metric names in sorted order.
func (m Metrics) Names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Spec declares one sweep: a named grid of axes, a per-cell trial
// count, a seed schedule, and the trial body. The eight paper
// experiments are each a Spec; future scenarios plug in the same way.
type Spec struct {
	// Name identifies the spec in the CLI, cache keys, and tables.
	Name string
	// Description is a one-line summary for `stcampaign list`.
	Description string

	// Axes span the sweep grid; Cells() is their cartesian product in
	// row-major order (last axis fastest).
	Axes []Axis

	// Trials per cell. Trial i uses seed Seed + i*SeedStride, exactly
	// the schedule the hand-written runners used, so cached units are
	// shared between quick and full runs of the same spec.
	Trials     int
	Seed       int64
	SeedStride int64

	// Epoch versions the trial body: bump it when the simulation or
	// protocol semantics behind this spec change, invalidating every
	// cached unit. Config carries the code-relevant option values that
	// are not axes (scan budgets, horizons); both are folded into every
	// unit's cache key.
	Epoch  string
	Config string

	// Blocks, when non-nil, splits each trial of a cell into that many
	// units (block 0 … n-1); nil means one block per trial. The block
	// partition is part of the trial body's semantics, versioned by
	// Epoch like the rest of it.
	Blocks func(cell Cell) int

	// Trial runs one unit: block b of the trial with the given cell
	// coordinates and seed, all randomness derived from the seed
	// alone. The fold concatenates a trial's blocks vector by vector
	// in block order, so a blocked trial must emit, block by block,
	// consecutive slices of the observation sequence one whole trial
	// would. It must be safe for concurrent invocation.
	Trial func(cell Cell, seed int64, block int) Metrics

	// Render writes the spec's text table from folded cell results.
	Render func(w io.Writer, cells []CellResult)
}

// Cells expands the axis grid in row-major order (last axis fastest).
// A spec with no axes has one empty cell; an axis with no values
// empties the whole grid (the cartesian product with an empty set).
func (s *Spec) Cells() []Cell {
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Values)
	}
	if n == 0 {
		return nil
	}
	out := make([]Cell, 0, n)
	idx := make([]int, len(s.Axes))
	for {
		cell := make(Cell, len(s.Axes))
		for i, a := range s.Axes {
			cell[i] = AxisValue{Axis: a.Name, Value: a.Values[idx[i]]}
		}
		out = append(out, cell)
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Units returns the total number of units the spec expands to:
// blocks × trials, summed over cells.
func (s *Spec) Units() int {
	n := 0
	for _, cell := range s.Cells() {
		n += s.blocks(cell) * s.Trials
	}
	return n
}

// blocks returns how many units each trial of the cell splits into.
func (s *Spec) blocks(cell Cell) int {
	if s.Blocks == nil {
		return 1
	}
	return s.Blocks(cell)
}

// TrialSeed returns the seed of trial i under the spec's schedule.
func (s *Spec) TrialSeed(i int) int64 {
	stride := s.SeedStride
	if stride == 0 {
		stride = 1
	}
	return s.Seed + int64(i)*stride
}

// CellResult is one folded cell: every trial's metrics in trial
// order, each trial's blocks already concatenated into one Metrics.
// The accessors rebuild the stats accumulators exactly as a serial
// loop over trials would have.
type CellResult struct {
	Cell   Cell      `json:"cell"`
	Trials []Metrics `json:"trials"`
}

// Rate folds the named 0/1 vectors of every trial into a stats.Rate.
func (c *CellResult) Rate(name string) stats.Rate {
	var r stats.Rate
	for _, t := range c.Trials {
		for _, v := range t[name] {
			r.Record(v != 0)
		}
	}
	return r
}

// RateCounts folds pre-aggregated per-trial (successes, trials)
// counter pairs — recorded as name+"_ok" and name+"_n" scalars — into
// a stats.Rate. Used when a trial aggregates many sub-observations
// internally (e.g. per-10 ms alignment samples).
func (c *CellResult) RateCounts(name string) stats.Rate {
	var r stats.Rate
	for _, t := range c.Trials {
		r.Merge(stats.Rate{
			Successes: int(t.Scalar(name + "_ok")),
			Trials:    int(t.Scalar(name + "_n")),
		})
	}
	return r
}

// Sample concatenates the named vectors of every trial, in trial
// order, into a stats.Sample — the exact observation sequence a
// serial accumulator would have seen.
func (c *CellResult) Sample(name string) stats.Sample {
	var s stats.Sample
	for _, t := range c.Trials {
		for _, v := range t[name] {
			s.Add(v)
		}
	}
	return s
}
