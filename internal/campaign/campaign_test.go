package campaign

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// syntheticSpec is a deterministic toy sweep: two axes, metrics
// derived arithmetically from (cell, seed) so results are checkable
// without the simulator.
func syntheticSpec(trials int) *Spec {
	return &Spec{
		Name:        "synthetic",
		Description: "toy spec for engine tests",
		Axes: []Axis{
			{Name: "a", Values: []string{"x", "y"}},
			{Name: "b", Values: []string{"1", "2", "3"}},
		},
		Trials:     trials,
		Seed:       100,
		SeedStride: 7,
		Epoch:      "v1",
		Trial: func(cell Cell, seed int64, _ int) Metrics {
			m := NewMetrics()
			m.Add("seed", float64(seed))
			m.Add("b2", float64(cell.Int("b")*2))
			m.Record("ok", seed%2 == 0)
			return m
		},
		Render: func(w io.Writer, cells []CellResult) {
			for _, c := range cells {
				ok := c.Rate("ok")
				s := c.Sample("seed")
				fmt.Fprintf(w, "%s ok=%d/%d sum=%.0f\n", c.Cell, ok.Successes, ok.Trials, s.Mean()*float64(s.N()))
			}
		},
	}
}

func TestCellsRowMajor(t *testing.T) {
	s := syntheticSpec(1)
	cells := s.Cells()
	if len(cells) != 6 {
		t.Fatalf("%d cells", len(cells))
	}
	want := []string{"a=x,b=1", "a=x,b=2", "a=x,b=3", "a=y,b=1", "a=y,b=2", "a=y,b=3"}
	for i, c := range cells {
		if c.String() != want[i] {
			t.Errorf("cell %d = %q, want %q", i, c, want[i])
		}
	}
	if s.Units() != 6 {
		t.Errorf("units %d", s.Units())
	}
}

func TestCellsNoAxes(t *testing.T) {
	s := &Spec{Trials: 4}
	cells := s.Cells()
	if len(cells) != 1 || len(cells[0]) != 0 {
		t.Fatalf("axis-free spec should have one empty cell, got %v", cells)
	}
	if s.Units() != 4 {
		t.Errorf("units %d", s.Units())
	}
}

func TestCellsEmptyAxis(t *testing.T) {
	s := syntheticSpec(4)
	s.Axes[1].Values = nil
	if cells := s.Cells(); len(cells) != 0 {
		t.Fatalf("empty axis should empty the grid, got %v", cells)
	}
	if s.Units() != 0 {
		t.Errorf("units %d", s.Units())
	}
	// The engine degrades to an empty run, not a panic.
	out, st := (&Engine{}).Run(s)
	if len(out) != 0 || st.Units != 0 {
		t.Errorf("empty-grid run: %v cells, %v", out, st)
	}
}

func TestCellAccessors(t *testing.T) {
	c := Cell{{Axis: "sc", Value: "Walk"}, {Axis: "m", Value: "3.5"}, {Axis: "n", Value: "64"}}
	if c.Get("sc") != "Walk" || c.Get("nope") != "" {
		t.Error("Get")
	}
	if c.Float("m") != 3.5 {
		t.Error("Float")
	}
	if c.Int("n") != 64 {
		t.Error("Int")
	}
}

func TestMetricsRoundTripAndAccessors(t *testing.T) {
	m := NewMetrics()
	m.Add("x", 1.5, 2.5)
	m.Record("ok", true)
	m.Record("ok", false)
	m.Count("n", 42)
	if m.Scalar("x") != 1.5 || m.Scalar("absent") != 0 {
		t.Error("Scalar")
	}
	if got := m.Names(); !reflect.DeepEqual(got, []string{"n", "ok", "x"}) {
		t.Errorf("Names %v", got)
	}
}

func TestKeyHashSensitivity(t *testing.T) {
	s := syntheticSpec(2)
	cells := s.Cells()
	base := s.UnitKey(cells[0], 0, 0).Hash()
	if s.UnitKey(cells[0], 0, 0).Hash() != base {
		t.Error("hash not stable")
	}
	if s.UnitKey(cells[0], 1, 0).Hash() == base {
		t.Error("hash ignores seed")
	}
	if s.UnitKey(cells[1], 0, 0).Hash() == base {
		t.Error("hash ignores cell")
	}
	if s.UnitKey(cells[0], 0, 1).Hash() == base {
		t.Error("hash ignores block")
	}
	s.Epoch = "v2"
	if s.UnitKey(cells[0], 0, 0).Hash() == base {
		t.Error("hash ignores epoch")
	}
	s.Epoch = "v1"
	s.Config = "horizon=12s"
	if s.UnitKey(cells[0], 0, 0).Hash() == base {
		t.Error("hash ignores config")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	m.Add("lat", 1.25, 3.75)
	m.Record("ok", true)
	h := Key{Experiment: "t", Seed: 1}.Hash()
	if _, ok := c.Get(h); ok {
		t.Fatal("hit before put")
	}
	if err := c.Put(h, m); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(h)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: got %v want %v", got, m)
	}
	if ts := c.Stats(); len(ts) != 1 || ts[0].Tier != "disk" || ts[0].Hits != 1 || ts[0].Misses != 1 {
		t.Errorf("disk stats %+v, want tier=disk hits=1 misses=1", ts)
	}
	n, err := c.Entries()
	if err != nil || n != 1 {
		t.Errorf("entries=%d err=%v", n, err)
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir() + "/cache"
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := Key{Experiment: "t", Seed: 2}.Hash()
	path := filepath.Join(dir, h[:2], h+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(h); ok {
		t.Fatal("corrupt entry served as hit")
	}
	// A torn entry is distinguished from a plain miss in the stats.
	ts := c.Stats()[0]
	if ts.Corrupt != 1 || ts.Misses != 0 || ts.Hits != 0 {
		t.Errorf("corrupt entry counted as %+v, want corrupt=1 misses=0", ts)
	}
}

func TestOpenRefusesForeignDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "data.txt"), []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open adopted a non-empty directory without the cache marker")
	}
	if _, err := os.Stat(filepath.Join(dir, markerName)); !os.IsNotExist(err) {
		t.Fatal("Open stamped a foreign directory with the marker")
	}
	// An empty pre-existing directory is fine, and reopening a real
	// cache is fine.
	empty := filepath.Join(dir, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty); err != nil {
		t.Fatalf("Open rejected an empty directory: %v", err)
	}
	if _, err := Open(empty); err != nil {
		t.Fatalf("Open rejected its own cache: %v", err)
	}
}

func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir() + "/cache"
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := Key{Experiment: "t", Seed: 3}.Hash()
	m := NewMetrics()
	m.Add("x", 1)
	if err := c.Put(h, m); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, h[:2])
	stale := filepath.Join(sub, h+".tmp123")
	fresh := filepath.Join(sub, h+".tmp456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp survived reopen")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp (possibly a concurrent run's) was swept")
	}
	if _, ok := c.Get(h); !ok {
		t.Error("valid entry lost in sweep")
	}
}

func TestCleanRefusesForeignDir(t *testing.T) {
	dir := t.TempDir()
	victim := filepath.Join(dir, "data.txt")
	if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Clean(dir); err == nil {
		t.Fatal("Clean removed a directory without the cache marker")
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatal("Clean destroyed foreign data")
	}
	// A real cache dir is removed; a nonexistent one is a no-op.
	cdir := filepath.Join(dir, "cache")
	if _, err := Open(cdir); err != nil {
		t.Fatal(err)
	}
	if err := Clean(cdir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cdir); !os.IsNotExist(err) {
		t.Fatal("cache dir survived Clean")
	}
	if err := Clean(cdir); err != nil {
		t.Fatal("Clean of nonexistent dir should be a no-op")
	}
}

func render(t *testing.T, e *Engine, s *Spec) (string, RunStats) {
	t.Helper()
	cells, stats := e.Run(s)
	var buf bytes.Buffer
	s.Render(&buf, cells)
	return buf.String(), stats
}

func TestEngineColdWarmIdentical(t *testing.T) {
	cache, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSpec(5)
	e := &Engine{Store: cache, Workers: 4}

	cold, cs := render(t, e, s)
	if cs.Computed != s.Units() || cs.Cached != 0 {
		t.Fatalf("cold run: %v", cs)
	}
	warm, ws := render(t, e, s)
	if ws.Computed != 0 || ws.Cached != s.Units() {
		t.Fatalf("warm run not fully cached: %v", ws)
	}
	if cold != warm {
		t.Errorf("cold and warm output differ:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}

	// No-cache runs at j=1 and j=8 match the cached output too.
	serial, _ := render(t, &Engine{Workers: 1}, s)
	par, _ := render(t, &Engine{Workers: 8}, s)
	if serial != par || serial != cold {
		t.Errorf("worker count or caching changed output")
	}
}

func TestEngineSharedCellsComputeDelta(t *testing.T) {
	cache, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	small := syntheticSpec(3)
	big := syntheticSpec(5) // same cells, 2 more trials each
	e := &Engine{Store: cache}
	if _, st := e.Run(small); st.Computed != small.Units() {
		t.Fatalf("cold small run: %v", st)
	}
	_, st := e.Run(big)
	if st.Cached != small.Units() {
		t.Errorf("big run reused %d units, want %d", st.Cached, small.Units())
	}
	if st.Computed != big.Units()-small.Units() {
		t.Errorf("big run computed %d units, want the %d-unit delta", st.Computed, big.Units()-small.Units())
	}
}

func TestEngineEpochInvalidatesCache(t *testing.T) {
	cache, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSpec(3)
	e := &Engine{Store: cache}
	e.Run(s)
	s.Epoch = "v2"
	if _, st := e.Run(s); st.Computed != s.Units() {
		t.Errorf("epoch bump did not invalidate: %v", st)
	}
	// And a changed cell value is its own unit: extend an axis.
	s.Axes[1].Values = append(s.Axes[1].Values, "4")
	if _, st := e.Run(s); st.Computed != 2*s.Trials {
		t.Errorf("new axis value computed %d units, want %d", st.Computed, 2*s.Trials)
	}
}

func TestRunCtxCancelPersistsCompletedUnits(t *testing.T) {
	cache, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSpec(50) // 6 cells × 50 = 300 units
	ctx, cancel := context.WithCancel(context.Background())
	var finished atomic.Int64
	inner := s.Trial
	s.Trial = func(cell Cell, seed int64, block int) Metrics {
		if finished.Add(1) == 10 {
			cancel() // cancel with most units undispatched
		}
		return inner(cell, seed, block)
	}
	e := &Engine{Store: cache, Workers: 4}
	cells, st, err := e.RunCtx(ctx, s)
	if err != context.Canceled {
		t.Fatalf("RunCtx err = %v, want context.Canceled", err)
	}
	if cells != nil {
		t.Fatal("cancelled RunCtx returned folded cells; a partial fold depends on worker timing")
	}
	entries, err := cache.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if entries == 0 || entries >= s.Units() {
		t.Fatalf("cancelled run persisted %d units, want a non-empty strict subset of %d", entries, s.Units())
	}
	if st.Computed != entries {
		t.Errorf("cancelled stats report %d computed, cache holds %d", st.Computed, entries)
	}

	// The warm rerun computes exactly the remainder and renders the
	// same bytes as an uninterrupted no-cache run.
	s.Trial = inner
	warm, ws := render(t, e, s)
	if ws.Cached != entries || ws.Computed != s.Units()-entries {
		t.Errorf("warm rerun after cancel: %v, want cached=%d computed=%d", ws, entries, s.Units()-entries)
	}
	ref, _ := render(t, &Engine{Workers: 1}, s)
	if warm != ref {
		t.Errorf("warm-after-cancel output differs from a clean run:\n--- warm ---\n%s--- ref ---\n%s", warm, ref)
	}
}

func TestRunCtxProgressEvents(t *testing.T) {
	s := syntheticSpec(4) // 6 cells × 4 = 24 units
	var events []Event
	e := &Engine{Workers: 8, Progress: func(ev Event) { events = append(events, ev) }}
	cells, st, err := e.RunCtx(context.Background(), s)
	if err != nil || len(cells) != 6 {
		t.Fatalf("run: %v cells, err %v", len(cells), err)
	}
	var units, cellsDone int
	var specDone *SpecDone
	lastDone := 0
	for _, ev := range events {
		switch ev := ev.(type) {
		case UnitDone:
			units++
			if specDone != nil {
				t.Fatal("UnitDone after SpecDone")
			}
			if ev.Spec != "synthetic" || ev.Units != 24 {
				t.Fatalf("UnitDone %+v", ev)
			}
			if ev.Cached {
				t.Fatal("cache-less run reported a cached unit")
			}
			if ev.Done != lastDone+1 {
				t.Fatalf("UnitDone.Done = %d after %d; not a serialised tally", ev.Done, lastDone)
			}
			lastDone = ev.Done
		case CellDone:
			if ev.Index != cellsDone || ev.Cells != 6 {
				t.Fatalf("CellDone out of fold order: %+v", ev)
			}
			if ev.Cell.String() != cells[ev.Index].Cell.String() {
				t.Fatalf("CellDone cell %q at index %d", ev.Cell, ev.Index)
			}
			cellsDone++
		case SpecDone:
			sd := ev
			specDone = &sd
		}
	}
	if units != 24 || cellsDone != 6 {
		t.Fatalf("saw %d UnitDone and %d CellDone events", units, cellsDone)
	}
	if specDone == nil {
		t.Fatal("no SpecDone event")
	}
	if got, want := events[len(events)-1], (specDone); !reflect.DeepEqual(got, *want) {
		t.Fatal("SpecDone is not the final event")
	}
	if specDone.Stats.Computed != 24 || specDone.Stats.Units != st.Units {
		t.Fatalf("SpecDone stats %+v vs run stats %+v", specDone.Stats, st)
	}

	// A cancelled run never emits SpecDone.
	events = nil
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.RunCtx(ctx, s); err == nil {
		t.Fatal("pre-cancelled RunCtx succeeded")
	}
	for _, ev := range events {
		if _, ok := ev.(SpecDone); ok {
			t.Fatal("cancelled run emitted SpecDone")
		}
	}
}

func TestRunStatsString(t *testing.T) {
	rs := RunStats{Units: 10, Computed: 4, Cached: 6}
	if rs.String() != "units=10 computed=4 cached=6" {
		t.Errorf("got %q", rs.String())
	}
}
