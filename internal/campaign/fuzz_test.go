package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzCacheGet feeds arbitrary bytes to the store backends' shared
// entry decoder — through a disk record, a MemStore slot, and a
// mem+disk Tiered composition. The contract under attack: a corrupt,
// truncated, or adversarial entry must always decode as a miss or as
// well-formed Metrics — never panic, never produce a value that
// poisons the fold accessors downstream — and every backend must
// agree on the outcome, or the tier mix could change rendered bytes.
// (A hit must also survive a re-encode: the engine may Put what it
// read back under another key's hash.)
func FuzzCacheGet(f *testing.F) {
	// Well-formed entries.
	f.Add(mustEncode(Metrics{}))
	f.Add(mustEncode(Metrics{"lat_ms": {1.5, 2.25}, "ok": {1, 0, 1}}))
	f.Add(mustEncode(Metrics{"x": nil}))
	f.Add(mustEncode(Metrics{"deep": {1, 2, 3}, "deep_ok": {4}, "deep_n": {9}}))
	// Truncations of a real entry (torn write from a killed run).
	whole := mustEncode(Metrics{"misalign_deg": {0.125, 3.5, 11.75}, "ho_done": {1}})
	for i := 0; i < len(whole); i += 7 {
		f.Add(whole[:i])
	}
	// Binary structural attacks: trailing bytes, unsorted names, a
	// count far past the body.
	f.Add(append(bytes.Clone(whole), 0))
	f.Add(field(field([]byte{entryVersion}, "b", 1, 1), "a", 1, 1))
	f.Add(field([]byte{entryVersion}, "a", 1<<60, 1))
	// JSON-era entries, well-formed ones included: all corrupt now.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"lat_ms":[1.5,2.25],"ok":[1,0,1]}`))
	f.Add([]byte(`{"x":[]}`))
	jsonWhole := []byte(`{"misalign_deg":[0.125,3.5,11.75],"ho_done":[1]}`)
	for i := 0; i < len(jsonWhole); i += 7 {
		f.Add(jsonWhole[:i])
	}
	// Type confusion and structural attacks.
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"a":1}`))
	f.Add([]byte(`{"a":["x"]}`))
	f.Add([]byte(`{"a":[1e400]}`))
	f.Add([]byte(`{"a":[NaN]}`))
	f.Add([]byte(`{"a":{"b":[1]}}`))
	f.Add([]byte(`{"a":[1],"a":[2]}`))
	f.Add([]byte(strings.Repeat(`{"a":[`, 100)))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, entry []byte) {
		cache, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		const hash = "00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef00deadbeef0000"
		if err := cache.putRaw(hash, entry); err != nil {
			t.Fatal(err)
		}

		m, ok := cache.Get(hash)

		// Every backend must reach the same verdict on the same bytes.
		mem := NewMemStore(1 << 20)
		mem.putRaw(hash, append([]byte(nil), entry...))
		mm, mok := mem.Get(hash)
		if mok != ok {
			t.Fatalf("mem and disk disagree on %q: mem=%v disk=%v", entry, mok, ok)
		}
		if ok && !reflect.DeepEqual(mm, m) {
			t.Fatalf("mem decoded %v, disk decoded %v", mm, m)
		}
		// A corrupt mem entry is dropped, never served later.
		if !ok && mem.Len() != 0 {
			t.Fatalf("mem kept a corrupt entry for %q", entry)
		}
		// Tiered over (cold mem, this disk) must agree with disk alone.
		tiered := NewTiered(NewMemStore(1<<20), cache)
		tm, tok := tiered.Get(hash)
		if tok != ok {
			t.Fatalf("tiered and disk disagree on %q: tiered=%v disk=%v", entry, tok, ok)
		}
		if ok && !reflect.DeepEqual(tm, m) {
			t.Fatalf("tiered decoded %v, disk decoded %v", tm, m)
		}

		if !ok {
			if m != nil {
				t.Fatalf("miss returned non-nil metrics %v", m)
			}
			return
		}
		if m == nil {
			// A nil hit would make the engine fold zero observations
			// for a unit it believes was served from cache.
			t.Fatalf("hit returned nil metrics for entry %q", entry)
		}

		// A hit must re-encode to exactly the bytes it was read from
		// and decode again to the same value (this is what warm runs
		// rely on for byte-identical tables).
		buf, err := EncodeEntry(m)
		if err != nil {
			t.Fatalf("decoded metrics do not re-encode: %v (%q)", err, entry)
		}
		if !bytes.Equal(buf, entry) {
			t.Fatalf("entry %x re-encodes as %x", entry, buf)
		}
		again, ok := DecodeEntry(buf)
		if !ok || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded metrics decode as %v, %v; want %v", again, ok, m)
		}

		// And it must not poison a fold: every accessor the row
		// builders use must run to completion on whatever decoded.
		cr := CellResult{Trials: []Metrics{m, again}}
		for name := range m {
			_ = cr.Sample(name)
			_ = cr.Rate(name)
			_ = cr.RateCounts(strings.TrimSuffix(strings.TrimSuffix(name, "_ok"), "_n"))
			_ = m.Scalar(name)
		}
		_ = m.Names()
	})
}

// FuzzSegmentScan feeds arbitrary bytes to Open as a segment file. The
// contract under attack: Open never panics; a record that is cut short
// or fails its CRC is never served, nor is anything after it in the
// segment; every intact record before the first damaged one is served
// exactly as the entry decoder reads it; and the store stays writable.
func FuzzSegmentScan(f *testing.F) {
	rec := func(i byte, entry []byte) []byte {
		return appendRecord(nil, [32]byte{i}, entry)
	}
	v := func(vs ...float64) []byte { return mustEncode(Metrics{"v": vs}) }
	two := append(rec(1, v(1)), rec(2, v(2, 3))...)
	f.Add(two)
	f.Add(append(two, rec(1, v(4))...)) // a later record wins
	for i := 0; i < len(two); i += 5 {
		f.Add(two[:i]) // torn tails
	}
	flipped := append([]byte(nil), two...)
	flipped[recHeader+2] ^= 1 // first record's entry
	f.Add(flipped)
	huge := rec(3, mustEncode(Metrics{}))
	huge[3] = 0xff // length field past any real entry
	f.Add(append(huge, two...))
	f.Add(rec(4, []byte(`{"v":[1]}`))) // intact record, JSON-era entry
	f.Add(rec(5, nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, segDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, markerName), []byte(markerContent), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segDirName, "fuzz"+segExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// Reference parse: intact records up to the first damaged one
		// (latest wins per hash), then the hash of the damaged record
		// and of every header its length field leads on to.
		intact := map[[32]byte][]byte{}
		var damaged [][32]byte
		for off := 0; len(data)-off >= recHeader; {
			hdr := data[off : off+recHeader]
			n := int(binary.LittleEndian.Uint32(hdr))
			end := off + recHeader + n
			ok := n <= maxEntryBytes && end <= len(data) &&
				crc32.Checksum(data[off+8:end], crc32.MakeTable(crc32.Castagnoli)) == binary.LittleEndian.Uint32(hdr[4:])
			if ok && damaged == nil {
				intact[[32]byte(hdr[8:])] = data[off+recHeader : end]
			} else {
				damaged = append(damaged, [32]byte(hdr[8:]))
			}
			if end > len(data) || end <= off {
				break
			}
			off = end
		}

		for key, entry := range intact {
			want, wok := DecodeEntry(entry)
			got, ok := c.Get(hex.EncodeToString(key[:]))
			if ok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("intact record %x: got %v, %v; want %v, %v", key, got, ok, want, wok)
			}
		}
		for _, key := range damaged {
			if _, ok := intact[key]; ok {
				continue
			}
			if m, ok := c.Get(hex.EncodeToString(key[:])); ok {
				t.Fatalf("damaged record %x served: %v", key, m)
			}
		}
		if n, _ := c.Entries(); n != len(intact) {
			t.Fatalf("Entries = %d, want %d", n, len(intact))
		}

		h := strings.Repeat("ab", 32)
		if err := c.Put(h, Metrics{"x": {1}}); err != nil {
			t.Fatal(err)
		}
		if m, ok := c.Get(h); !ok || !reflect.DeepEqual(m, Metrics{"x": {1}}) {
			t.Fatalf("Put after a damaged scan: %v, %v", m, ok)
		}
	})
}
