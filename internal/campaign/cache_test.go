package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// segFiles lists the segment files of the cache at dir.
func segFiles(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segDirName, "*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestOpenTornTail: a record cut short (a killed run's last write) or
// failing its CRC at a segment's tail is never served; every intact
// record before it still hits, and the directory stays writable.
func TestOpenTornTail(t *testing.T) {
	dir := t.TempDir() + "/cache"
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(testHash(i), testMetrics(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	seg := segFiles(t, dir)[0]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil { // cut into record 2
		t.Fatal(err)
	}

	check := func(s *DiskStore, hits []int, misses []int) {
		t.Helper()
		for _, i := range hits {
			if m, ok := s.Get(testHash(i)); !ok || !reflect.DeepEqual(m, testMetrics(i)) {
				t.Errorf("intact record %d = %v, %v", i, m, ok)
			}
		}
		for _, i := range misses {
			if m, ok := s.Get(testHash(i)); ok {
				t.Errorf("torn record %d served: %v", i, m)
			}
		}
		if ts := s.Stats()[0]; ts.Corrupt != 0 {
			t.Errorf("a torn tail is never indexed, so never corrupt: %+v", ts)
		}
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(r, []int{0, 1}, []int{2})

	// A complete record whose CRC fails ends the scan the same way,
	// as does a bare partial header.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := appendRecord(nil, [32]byte{9}, mustEncode(testMetrics(9)))
	bad[len(bad)-1] ^= 1
	if _, err := f.Write(append(bad, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The reopened store recomputes the lost unit into a segment of
	// its own; a third store sees both segments' intact records.
	if err := r.Put(testHash(2), testMetrics(2)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(again, []int{0, 1, 2}, nil)
	if _, ok := again.Get(testHash(9)); ok {
		t.Error("record failing its CRC was served")
	}
	if n, _ := again.Entries(); n != 3 {
		t.Errorf("Entries = %d, want 3", n)
	}
}

// TestDiskStoreMalformedHash: a hash that is not 64 lowercase hex
// characters names no entry — a miss on Get, an error on Put, never a
// panic, and never a file outside the cache directory.
func TestDiskStoreMalformedHash(t *testing.T) {
	root := t.TempDir()
	c, err := Open(filepath.Join(root, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	valid := testHash(1)
	cases := []struct{ name, hash string }{
		{"empty", ""},
		{"one char", "a"},
		{"non-hex", strings.Repeat("g", 64)},
		{"traversal", "../x"},
		{"traversal 64", "../" + valid[3:]},
		{"upper case", strings.ToUpper(strings.Repeat("ab", 32))},
		{"short", valid[:63]},
		{"long", valid + "0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if m, ok := c.Get(tc.hash); ok || m != nil {
				t.Errorf("Get(%q) = %v, %v, want a miss", tc.hash, m, ok)
			}
			if err := c.Put(tc.hash, testMetrics(1)); err == nil {
				t.Errorf("Put(%q) succeeded", tc.hash)
			}
		})
	}
	ts := c.Stats()[0]
	if n := int64(len(cases)); ts.Misses != n || ts.Errors != n || ts.Hits != 0 {
		t.Errorf("stats %+v, want misses=errors=%d", ts, n)
	}
	if entries, _ := os.ReadDir(root); len(entries) != 1 {
		t.Errorf("malformed hashes wrote outside the cache: %v", entries)
	}
	if segs := segFiles(t, filepath.Join(root, "cache")); len(segs) != 0 {
		t.Errorf("rejected Puts created segments: %v", segs)
	}
}

// TestDiskStoreConcurrent: goroutines Put and Get overlapping hashes
// on one store (run under -race in CI); every hit is the exact value
// Put, and a later Open of the directory hits every hash.
func TestDiskStoreConcurrent(t *testing.T) {
	dir := t.TempDir() + "/cache"
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers, hashes, rounds = 8, 40, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*7 + r) % hashes
				if m, ok := c.Get(testHash(i)); ok && !reflect.DeepEqual(m, testMetrics(i)) {
					t.Errorf("hash %d read %v", i, m)
				}
				if err := c.Put(testHash(i), testMetrics(i)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if ts := c.Stats()[0]; ts.Corrupt != 0 || ts.Errors != 0 {
		t.Errorf("stats %+v", ts)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hashes; i++ {
		if m, ok := again.Get(testHash(i)); !ok || !reflect.DeepEqual(m, testMetrics(i)) {
			t.Errorf("reopened store: hash %d = %v, %v", i, m, ok)
		}
	}
	if n, _ := again.Entries(); n != hashes {
		t.Errorf("Entries = %d, want %d", n, hashes)
	}
}

// TestDiskStoreTwoWriters: two stores open at once on one directory
// write disjoint and shared hashes concurrently. Each writes its own
// segment, each sees the other's records, and neither damages the
// other's: a third store hits everything with nothing corrupt.
func TestDiskStoreTwoWriters(t *testing.T) {
	dir := t.TempDir() + "/cache"
	stores := make([]*DiskStore, 2)
	for i := range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	const n = 60
	var wg sync.WaitGroup
	for w, s := range stores {
		wg.Add(1)
		go func(w int, s *DiskStore) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				h := w*n + i // disjoint
				if i%3 == 0 {
					h = i // shared
				}
				if err := s.Put(testHash(h), testMetrics(h)); err != nil {
					t.Error(err)
				}
				if m, ok := stores[1-w].Get(testHash(h)); !ok || !reflect.DeepEqual(m, testMetrics(h)) {
					t.Errorf("store %d did not see store %d's hash %d: %v, %v", 1-w, w, h, m, ok)
				}
			}
		}(w, s)
	}
	wg.Wait()
	for _, s := range stores {
		s.Close()
	}
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Errorf("segments %v, want one per writing store", segs)
	}
	third, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for h := 0; h < 2*n; h++ {
		if h >= n && (h-n)%3 == 0 {
			continue // store 1 wrote the shared hash instead
		}
		want++
		if m, ok := third.Get(testHash(h)); !ok || !reflect.DeepEqual(m, testMetrics(h)) {
			t.Errorf("hash %d = %v, %v", h, m, ok)
		}
	}
	if got, _ := third.Entries(); got != want {
		t.Errorf("Entries = %d, want %d", got, want)
	}
	for _, s := range append(stores, third) {
		if ts := s.Stats()[0]; ts.Corrupt != 0 || ts.Errors != 0 {
			t.Errorf("stats %+v", ts)
		}
	}
}

// TestJSONEraEntrySelfHeals: a segment written before the binary
// entry codec holds JSON entries. Each reads as one counted corrupt
// miss; the recomputed unit's Put appends a binary record under the
// same hash, which wins from then on, in this store and after reopen.
func TestJSONEraEntrySelfHeals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.putRaw(testHash(1), []byte(`{"v":[1,0.5]}`)); err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Get(testHash(1)); ok {
		t.Fatalf("JSON-era entry served: %v", m)
	}
	if err := s.Put(testHash(1), testMetrics(1)); err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Get(testHash(1)); !ok || !reflect.DeepEqual(m, testMetrics(1)) {
		t.Fatalf("recomputed entry = %v, %v", m, ok)
	}
	if ts := s.Stats()[0]; ts.Corrupt != 1 || ts.Hits != 1 {
		t.Errorf("stats = %+v, want corrupt=1 hits=1", ts)
	}
	s.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m, ok := r.Get(testHash(1)); !ok || !reflect.DeepEqual(m, testMetrics(1)) {
		t.Fatalf("after reopen = %v, %v", m, ok)
	}
	if ts := r.Stats()[0]; ts.Corrupt != 0 {
		t.Errorf("reopened store counted corrupt: %+v", ts)
	}
}
