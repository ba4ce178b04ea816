package campaign

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// testHash returns a distinct well-formed unit hash (64 hex chars).
func testHash(i int) string { return fmt.Sprintf("%064x", i) }

// testMetrics returns metrics deterministically derived from i, so a
// reader can verify an entry was not torn or cross-wired.
func testMetrics(i int) Metrics {
	return Metrics{"v": []float64{float64(i), float64(i) * 0.5}}
}

// TestOpenConcurrent is the marker-race regression test: concurrent
// Opens of the same fresh directory must all succeed — exactly one
// creates the marker, the rest tolerate it already existing.
func TestOpenConcurrent(t *testing.T) {
	dir := t.TempDir() + "/cache"
	const n = 16
	stores := make([]*DiskStore, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i], errs[i] = Open(dir)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent Open %d: %v", i, errs[i])
		}
	}
	// The winners share one directory: a Put through any is a Get hit
	// through any other.
	if err := stores[0].Put(testHash(1), testMetrics(1)); err != nil {
		t.Fatal(err)
	}
	if m, ok := stores[n-1].Get(testHash(1)); !ok || !reflect.DeepEqual(m, testMetrics(1)) {
		t.Fatalf("Get through sibling store = %v, %v", m, ok)
	}
}

func TestMemStoreLRUEviction(t *testing.T) {
	// Budget sized for exactly two entries (entry encodings differ in
	// length, so account each one's real cost).
	cost := func(i int) int64 {
		t.Helper()
		buf, err := EncodeEntry(testMetrics(i))
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(testHash(i))+len(buf)) + memOverhead
	}
	s := NewMemStore(cost(0) + cost(1))

	for i := 0; i < 2; i++ {
		if err := s.Put(testHash(i), testMetrics(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 0 so entry 1 is the LRU victim of the next insert.
	if _, ok := s.Get(testHash(0)); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	if err := s.Put(testHash(2), testMetrics(2)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.Get(testHash(1)); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, i := range []int{0, 2} {
		if m, ok := s.Get(testHash(i)); !ok || !reflect.DeepEqual(m, testMetrics(i)) {
			t.Errorf("entry %d after eviction = %v, %v", i, m, ok)
		}
	}
	ts := s.Stats()[0]
	if ts.Tier != "mem" || ts.Evicted != 1 {
		t.Errorf("stats = %+v, want tier=mem evicted=1", ts)
	}
}

func TestMemStoreTinyBudgetKeepsNewest(t *testing.T) {
	s := NewMemStore(1) // far below any entry's cost
	for i := 0; i < 3; i++ {
		if err := s.Put(testHash(i), testMetrics(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (newest always survives)", s.Len())
	}
	if m, ok := s.Get(testHash(2)); !ok || !reflect.DeepEqual(m, testMetrics(2)) {
		t.Fatalf("newest entry = %v, %v", m, ok)
	}
}

func TestMemStoreReplaceSameHash(t *testing.T) {
	s := NewMemStore(1 << 20)
	s.Put(testHash(1), testMetrics(1))
	s.Put(testHash(1), testMetrics(2))
	if s.Len() != 1 {
		t.Fatalf("Len = %d after replacing one hash", s.Len())
	}
	if m, _ := s.Get(testHash(1)); !reflect.DeepEqual(m, testMetrics(2)) {
		t.Fatalf("replaced entry = %v", m)
	}
}

func TestMemStoreCorruptEntryIsMissAndDropped(t *testing.T) {
	s := NewMemStore(1 << 20)
	s.putRaw(testHash(1), mustEncode(testMetrics(1))[:5]) // torn entry
	s.putRaw(testHash(2), []byte(`null`))                 // JSON-era entry
	for _, h := range []string{testHash(1), testHash(2)} {
		if m, ok := s.Get(h); ok || m != nil {
			t.Fatalf("corrupt entry %s read as hit: %v", h, m)
		}
	}
	if s.Len() != 0 {
		t.Errorf("corrupt entries not dropped: Len = %d", s.Len())
	}
	ts := s.Stats()[0]
	if ts.Corrupt != 2 || ts.Hits != 0 || ts.Misses != 0 {
		t.Errorf("stats = %+v, want corrupt=2 hits=0 misses=0", ts)
	}
}

func TestTieredReadThroughBackfill(t *testing.T) {
	mem := NewMemStore(1 << 20)
	disk, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(mem, disk)

	// Seed the slow tier only: the first Get must hit disk and
	// backfill mem; the second must hit mem without touching disk.
	if err := disk.Put(testHash(1), testMetrics(1)); err != nil {
		t.Fatal(err)
	}
	if m, ok := tiered.Get(testHash(1)); !ok || !reflect.DeepEqual(m, testMetrics(1)) {
		t.Fatalf("first Get = %v, %v", m, ok)
	}
	if mem.Len() != 1 {
		t.Fatalf("hit not backfilled into mem: Len = %d", mem.Len())
	}
	diskHitsBefore := disk.Stats()[0].Hits
	if m, ok := tiered.Get(testHash(1)); !ok || !reflect.DeepEqual(m, testMetrics(1)) {
		t.Fatalf("second Get = %v, %v", m, ok)
	}
	if got := disk.Stats()[0].Hits; got != diskHitsBefore {
		t.Errorf("second Get reached disk (hits %d → %d), want mem to serve it", diskHitsBefore, got)
	}
}

func TestTieredWriteThrough(t *testing.T) {
	mem := NewMemStore(1 << 20)
	disk, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(mem, disk)
	if err := tiered.Put(testHash(1), testMetrics(1)); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": mem, "disk": disk} {
		if m, ok := s.Get(testHash(1)); !ok || !reflect.DeepEqual(m, testMetrics(1)) {
			t.Errorf("write-through missed tier %s: %v, %v", name, m, ok)
		}
	}
}

func TestTieredStatsConcatInTierOrder(t *testing.T) {
	mem := NewMemStore(1 << 20)
	disk, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTiered(mem, disk).Stats()
	if len(ts) != 2 || ts[0].Tier != "mem" || ts[1].Tier != "disk" {
		t.Fatalf("stats = %+v, want [mem disk]", ts)
	}
}

// TestHTTPStoreDegradesToMiss drives the remote client against every
// server failure mode: each must read as a miss (never an error or a
// panic) and land in the right counter.
func TestHTTPStoreDegradesToMiss(t *testing.T) {
	hash := testHash(1)

	t.Run("server error", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		defer srv.Close()
		s := NewHTTPStore(srv.URL, nil)
		if _, ok := s.Get(hash); ok {
			t.Fatal("500 served as hit")
		}
		if err := s.Put(hash, testMetrics(1)); err == nil {
			t.Fatal("Put against 500 returned nil error")
		}
		if ts := s.Stats()[0]; ts.Errors != 2 || ts.Hits != 0 {
			t.Errorf("stats = %+v, want errors=2", ts)
		}
	})

	t.Run("not found is a plain miss", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		defer srv.Close()
		s := NewHTTPStore(srv.URL, nil)
		if _, ok := s.Get(hash); ok {
			t.Fatal("404 served as hit")
		}
		if ts := s.Stats()[0]; ts.Misses != 1 || ts.Errors != 0 {
			t.Errorf("stats = %+v, want misses=1 errors=0", ts)
		}
	})

	t.Run("garbage body is corrupt", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"v":[1,`))
		}))
		defer srv.Close()
		s := NewHTTPStore(srv.URL, nil)
		if _, ok := s.Get(hash); ok {
			t.Fatal("garbage body served as hit")
		}
		if ts := s.Stats()[0]; ts.Corrupt != 1 {
			t.Errorf("stats = %+v, want corrupt=1", ts)
		}
	})

	t.Run("dead server", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		srv.Close() // connection refused from here on
		s := NewHTTPStore(srv.URL, nil)
		if _, ok := s.Get(hash); ok {
			t.Fatal("dead server served as hit")
		}
		if err := s.Put(hash, testMetrics(1)); err == nil {
			t.Fatal("Put against dead server returned nil error")
		}
		if ts := s.Stats()[0]; ts.Errors != 2 {
			t.Errorf("stats = %+v, want errors=2", ts)
		}
	})

	t.Run("well-formed entry is a hit", func(t *testing.T) {
		entry, err := EncodeEntry(testMetrics(7))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(entry)
		}))
		defer srv.Close()
		s := NewHTTPStore(srv.URL, nil)
		if m, ok := s.Get(hash); !ok || !reflect.DeepEqual(m, testMetrics(7)) {
			t.Fatalf("Get = %v, %v", m, ok)
		}
		if ts := s.Stats()[0]; ts.Tier != "remote" || ts.Hits != 1 {
			t.Errorf("stats = %+v, want tier=remote hits=1", ts)
		}
	})
}

// TestTieredConcurrentStress hammers a tiered store (thrashing 1-entry
// mem tier over disk) from many goroutines under -race: every hit must
// decode to exactly the hash-derived metrics (no torn or cross-wired
// reads), and the per-tier counters must be mutually consistent.
func TestTieredConcurrentStress(t *testing.T) {
	mem := NewMemStore(1) // thrash: every insert evicts
	disk, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(mem, disk)

	const goroutines = 8
	const rounds = 30
	const keys = 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % keys
				m, ok := tiered.Get(testHash(i))
				if ok {
					if !reflect.DeepEqual(m, testMetrics(i)) {
						errc <- fmt.Errorf("torn read: key %d yielded %v", i, m)
						return
					}
					continue
				}
				if err := tiered.Put(testHash(i), testMetrics(i)); err != nil {
					errc <- fmt.Errorf("put %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	ts := tiered.Stats()
	memTS, diskTS := ts[0], ts[1]
	if memTS.Corrupt != 0 || diskTS.Corrupt != 0 {
		t.Fatalf("corrupt entries under stress: %+v", ts)
	}
	// Every tiered Get consulted mem; disk was consulted exactly on
	// the mem misses (no corrupt entries, so misses alone descend).
	totalGets := int64(goroutines * rounds)
	if memTS.Hits+memTS.Misses != totalGets {
		t.Errorf("mem hits+misses = %d, want %d", memTS.Hits+memTS.Misses, totalGets)
	}
	if diskTS.Hits+diskTS.Misses != memTS.Misses {
		t.Errorf("disk gets = %d, want mem misses = %d",
			diskTS.Hits+diskTS.Misses, memTS.Misses)
	}
	// The 1-entry mem tier evicted on (almost) every insert: inserts
	// are write-through Puts plus disk-hit backfills.
	if memTS.Evicted == 0 {
		t.Error("1-entry mem tier under thrash evicted nothing")
	}
}

// TestEngineTieredColdWarm runs a spec through a mem+disk tiered
// store: the warm run must compute nothing, render the same bytes,
// and report per-run tier deltas (not cumulative totals).
func TestEngineTieredColdWarm(t *testing.T) {
	mem := NewMemStore(1 << 20)
	disk, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSpec(5)
	e := &Engine{Store: NewTiered(mem, disk), Workers: 4}

	cold, cs := render(t, e, s)
	if cs.Computed != s.Units() || cs.Cached != 0 {
		t.Fatalf("cold run: %v", cs)
	}
	if len(cs.Tiers) != 2 || cs.Tiers[0].Tier != "mem" || cs.Tiers[1].Tier != "disk" {
		t.Fatalf("cold tiers = %+v", cs.Tiers)
	}
	if cs.Tiers[0].Misses != int64(s.Units()) || cs.Tiers[1].Misses != int64(s.Units()) {
		t.Errorf("cold run misses = %+v, want %d per tier", cs.Tiers, s.Units())
	}

	warm, ws := render(t, e, s)
	if ws.Computed != 0 || ws.Cached != s.Units() {
		t.Fatalf("warm run not fully cached: %v", ws)
	}
	if cold != warm {
		t.Errorf("tiered cold and warm output differ:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	// Per-run deltas: the warm run's mem hits are its own, not the
	// cumulative totals, and every unit was served before disk.
	if ws.Tiers[0].Hits != int64(s.Units()) || ws.Tiers[0].Misses != 0 {
		t.Errorf("warm mem tier = %+v, want hits=%d misses=0", ws.Tiers[0], s.Units())
	}
	if ws.Tiers[1].Hits != 0 || ws.Tiers[1].Misses != 0 {
		t.Errorf("warm disk tier = %+v, want untouched", ws.Tiers[1])
	}

	// Cacheless output matches too: the store invariant.
	plain, _ := render(t, &Engine{Workers: 2}, s)
	if plain != cold {
		t.Error("tiered store changed rendered bytes")
	}
}

// TestEngineEvictionForcedRecompute runs with only a 1-entry mem tier:
// the rerun recomputes almost everything (the cache thrashes) but the
// bytes stay identical — eviction may only change computed counts.
func TestEngineEvictionForcedRecompute(t *testing.T) {
	s := syntheticSpec(5)
	e := &Engine{Store: NewMemStore(1), Workers: 1}

	cold, _ := render(t, e, s)
	again, st := render(t, e, s)
	if st.Computed == 0 {
		t.Fatal("1-entry store served a full warm run; eviction did not bite")
	}
	if cold != again {
		t.Errorf("eviction changed rendered bytes:\n--- first ---\n%s--- second ---\n%s", cold, again)
	}
	if st.Tiers[0].Evicted == 0 {
		t.Error("thrashing run reported no evictions")
	}
}

func TestTierStatsString(t *testing.T) {
	for _, tc := range []struct {
		ts   TierStats
		want string
	}{
		{TierStats{Tier: "disk", Hits: 3, Misses: 7}, "disk[hit=3 miss=7]"},
		{TierStats{Tier: "mem", Hits: 1, Misses: 2, Evicted: 4}, "mem[hit=1 miss=2 evict=4]"},
		{TierStats{Tier: "remote", Corrupt: 1, Errors: 2}, "remote[hit=0 miss=0 corrupt=1 err=2]"},
		// Resilience counters render only when nonzero, after err=,
		// so the frozen prefix of existing stats lines never moves.
		{TierStats{Tier: "remote", Hits: 2, Errors: 3, Retries: 4},
			"remote[hit=2 miss=0 err=3 retry=4]"},
		{TierStats{Tier: "remote", Retries: 1, BreakerOpens: 2, Shorted: 9},
			"remote[hit=0 miss=0 retry=1 open=2 short=9]"},
		{TierStats{Tier: "remote", Hits: 1, Misses: 2, Corrupt: 3, Evicted: 4,
			Errors: 5, Retries: 6, BreakerOpens: 7, Shorted: 8},
			"remote[hit=1 miss=2 corrupt=3 evict=4 err=5 retry=6 open=7 short=8]"},
	} {
		if got := tc.ts.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestRunStatsStringWithTiers(t *testing.T) {
	rs := RunStats{Units: 10, Computed: 4, Cached: 6, Tiers: []TierStats{
		{Tier: "mem", Hits: 6, Misses: 4},
		{Tier: "disk", Hits: 0, Misses: 4},
	}}
	want := "units=10 computed=4 cached=6 mem[hit=6 miss=4] disk[hit=0 miss=4]"
	if rs.String() != want {
		t.Errorf("got %q, want %q", rs.String(), want)
	}
}

func TestTierDelta(t *testing.T) {
	before := []TierStats{{Tier: "mem", Hits: 5, Misses: 3}}
	after := []TierStats{{Tier: "mem", Hits: 9, Misses: 3, Evicted: 2}}
	got := tierDelta(before, after)
	want := []TierStats{{Tier: "mem", Hits: 4, Misses: 0, Evicted: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tierDelta = %+v, want %+v", got, want)
	}
	// Every counter subtracts, the resilience trio included — a field
	// added to TierStats but not to sub() would surface here as a
	// cumulative value leaking into a per-run delta.
	before = []TierStats{{Tier: "remote", Hits: 1, Misses: 2, Corrupt: 3, Evicted: 4,
		Errors: 5, Retries: 6, BreakerOpens: 7, Shorted: 8}}
	after = []TierStats{{Tier: "remote", Hits: 2, Misses: 4, Corrupt: 6, Evicted: 8,
		Errors: 10, Retries: 12, BreakerOpens: 14, Shorted: 16}}
	if got := tierDelta(before, after); !reflect.DeepEqual(got, before) {
		t.Errorf("full-counter delta = %+v, want %+v", got, before)
	}
	// A reshaped tier list falls back to the after snapshot.
	if got := tierDelta(nil, after); !reflect.DeepEqual(got, after) {
		t.Errorf("mismatched shapes = %+v, want after snapshot", got)
	}
}
