package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
)

// blockItems is how many observations one block of the blocked
// synthetic spec emits.
const blockItems = 3

// emitItems appends items [lo, hi) of the trial with the given seed —
// the observation sequence one "UE" per item would produce. "sparse"
// is absent from some blocks entirely, as urban's neighbor_share is
// from a block whose UEs never listen.
func emitItems(m Metrics, seed int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := float64(seed*100 + int64(i) + 1)
		m.Add("v", v)
		m.Record("ok", i%2 == 0)
		if (seed+int64(i))%5 == 0 {
			m.Add("sparse", v/7)
		}
	}
}

// blockedSpec sweeps cells of 1, 2 and 5 blocks; each block emits its
// slice of the trial's observations.
func blockedSpec(trials int) *Spec {
	return &Spec{
		Name:       "blocked",
		Axes:       []Axis{{Name: "n", Values: []string{"1", "2", "5"}}},
		Trials:     trials,
		Seed:       40,
		SeedStride: 3,
		Epoch:      "v1",
		Blocks:     func(cell Cell) int { return cell.Int("n") },
		Trial: func(cell Cell, seed int64, block int) Metrics {
			m := NewMetrics()
			emitItems(m, seed, block*blockItems, (block+1)*blockItems)
			return m
		},
		Render: renderJSON,
	}
}

// wholeSpec is blockedSpec's unblocked twin: one unit per trial that
// emits every block's observations in order.
func wholeSpec(trials int) *Spec {
	s := blockedSpec(trials)
	s.Name = "whole"
	s.Blocks = nil
	s.Trial = func(cell Cell, seed int64, _ int) Metrics {
		m := NewMetrics()
		emitItems(m, seed, 0, cell.Int("n")*blockItems)
		return m
	}
	return s
}

func renderJSON(w io.Writer, cells []CellResult) {
	buf, err := json.Marshal(cells)
	if err != nil {
		panic(err)
	}
	w.Write(buf)
}

func cellsJSON(t *testing.T, cells []CellResult) string {
	t.Helper()
	var buf bytes.Buffer
	renderJSON(&buf, cells)
	return buf.String()
}

func TestBlockedUnitsEnumerate(t *testing.T) {
	s := blockedSpec(4)
	want := (1 + 2 + 5) * 4
	units := s.Expand(true)
	if s.Units() != want || len(units) != want {
		t.Fatalf("Units() = %d, len(Expand) = %d, want %d", s.Units(), len(units), want)
	}
	hashes := map[string]bool{}
	cells := s.Cells()
	prev := UnitRef{Cell: -1}
	for i, u := range units {
		if u.Index != i {
			t.Fatalf("unit %d has Index %d", i, u.Index)
		}
		// Fold order: cell-major, then trial, then block.
		if prev.Cell >= 0 {
			next := u.Cell > prev.Cell ||
				u.Cell == prev.Cell && (u.Trial == prev.Trial+1 && u.Block == 0 ||
					u.Trial == prev.Trial && u.Block == prev.Block+1)
			if !next {
				t.Fatalf("unit %+v does not follow %+v in fold order", u, prev)
			}
		}
		if nb := cells[u.Cell].Int("n"); u.Block >= nb || u.Seed != s.TrialSeed(u.Trial) {
			t.Fatalf("unit %+v out of its cell's %d blocks or off the seed schedule", u, nb)
		}
		if hashes[u.Hash] {
			t.Fatalf("unit %+v shares its content hash with another unit", u)
		}
		hashes[u.Hash] = true
		prev = u
	}
}

func TestBlockedFoldMatchesWholeTrial(t *testing.T) {
	whole, _ := (&Engine{Workers: 1}).Run(wholeSpec(4))
	blocked, st := (&Engine{Workers: 8}).Run(blockedSpec(4))
	if st.Units != 32 || st.Computed != 32 {
		t.Fatalf("blocked run stats %v", st)
	}
	for i, c := range blocked {
		if len(c.Trials) != 4 {
			t.Fatalf("cell %s folded %d trials, want one entry per trial", c.Cell, len(c.Trials))
		}
		got, want := c.Sample("v"), whole[i].Sample("v")
		if got.N() != want.N() {
			t.Fatalf("cell %s: %d observations, want %d", c.Cell, got.N(), want.N())
		}
	}
	if got, want := cellsJSON(t, blocked), cellsJSON(t, whole); got != want {
		t.Errorf("blocked fold differs from the unblocked twin:\n got %s\nwant %s", got, want)
	}
}

// TestBlockedFoldCopies pins that the fold never appends into a
// block's own slices: a block returned with spare capacity keeps its
// backing array untouched after the later blocks are merged.
func TestBlockedFoldCopies(t *testing.T) {
	s := blockedSpec(2)
	var mu sync.Mutex
	var firsts [][]float64
	inner := s.Trial
	s.Trial = func(cell Cell, seed int64, block int) Metrics {
		m := inner(cell, seed, block)
		if block == 0 {
			v := make([]float64, len(m["v"]), 64)
			copy(v, m["v"])
			m["v"] = v
			mu.Lock()
			firsts = append(firsts, v)
			mu.Unlock()
		}
		return m
	}
	cells, _ := (&Engine{Workers: 4}).Run(s)
	for _, v := range firsts {
		for i, x := range v[len(v):cap(v)] {
			if x != 0 {
				t.Fatalf("fold wrote %v past block 0's length at offset %d: it aliases the block", x, i)
			}
		}
	}
	whole, _ := (&Engine{Workers: 1}).Run(wholeSpec(2))
	if cellsJSON(t, cells) != cellsJSON(t, whole) {
		t.Error("spare-capacity blocks changed the fold")
	}
}

func TestBlockedColdWarmIdentical(t *testing.T) {
	cache, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	s := blockedSpec(5)
	cold, cs := render(t, &Engine{Store: cache, Workers: 8}, s)
	if cs.Computed != s.Units() || cs.Cached != 0 {
		t.Fatalf("cold run: %v", cs)
	}
	warm, ws := render(t, &Engine{Store: cache, Workers: 1}, s)
	if ws.Computed != 0 || ws.Cached != s.Units() {
		t.Fatalf("warm run not fully cached: %v", ws)
	}
	if cold != warm {
		t.Errorf("cold -j 8 and warm -j 1 differ:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

// TestBlockedExecuteSubsetThenFold is the distributed path: a worker
// executes an arbitrary subset of blocks into the shared store, and
// the coordinator's RunCtx computes only the remainder and folds the
// same cells as a local run.
func TestBlockedExecuteSubsetThenFold(t *testing.T) {
	cache, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	s := blockedSpec(3)
	units := s.Expand(false)
	var subset []int
	for _, u := range units {
		// Trailing blocks without their block 0, lone block 0s, and
		// whole unblocked trials, in reverse order.
		if u.Block%2 == 1 || u.Block == 0 && u.Trial == 1 || u.Index%7 == 0 {
			subset = append([]int{u.Index}, subset...)
		}
	}
	es, err := (&Engine{Store: cache, Workers: 3}).ExecuteUnits(context.Background(), s, subset)
	if err != nil || es.Computed != len(subset) || es.Cached != 0 {
		t.Fatalf("ExecuteUnits: %+v, %v (subset of %d)", es, err, len(subset))
	}
	cells, st, err := (&Engine{Store: cache, Workers: 2}).RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != len(subset) || st.Computed != s.Units()-len(subset) {
		t.Errorf("fold after ExecuteUnits: %v, want cached=%d computed=%d", st, len(subset), s.Units()-len(subset))
	}
	ref, _ := (&Engine{Workers: 1}).Run(s)
	if got, want := cellsJSON(t, cells), cellsJSON(t, ref); got != want {
		t.Errorf("distributed fold differs from a local run:\n got %s\nwant %s", got, want)
	}
}

func ExampleMetrics_Append() {
	m := NewMetrics()
	m.Add("x", 1, 2)
	o := NewMetrics()
	o.Add("x", 3)
	o.Add("y", 4)
	m.Append(o)
	fmt.Println(m["x"], m["y"])
	// Output: [1 2 3] [4]
}
