package campaign

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// mustEncode is EncodeEntry for inputs known to be encodable (fuzz
// seeds, fixtures).
func mustEncode(m Metrics) []byte {
	buf, err := EncodeEntry(m)
	if err != nil {
		panic(err)
	}
	return buf
}

// field appends one hand-built entry field: name, count, and the given
// values' bit patterns (which need not number count).
func field(dst []byte, name string, count uint64, vs ...float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, count)
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func TestEntryCodecRoundTrip(t *testing.T) {
	for _, m := range []Metrics{
		{},
		{"v": {1}},
		{"lat_ms": {1.5, 2.25}, "ok": {1, 0, 1}, "": {7}},
		{"\x00weird key\n": {0.1}, "ünïcode": {-3}},
		{"a": {math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}},
		{"long": make([]float64, 300), "x": {1}},
	} {
		buf, err := EncodeEntry(m)
		if err != nil {
			t.Fatalf("encode %v: %v", m, err)
		}
		if buf[0] != entryVersion {
			t.Errorf("entry starts with %#x, want the version byte", buf[0])
		}
		got, ok := DecodeEntry(buf)
		if !ok || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip of %v = %v, %v", m, got, ok)
		}
		for name, vs := range m {
			for i, v := range vs {
				if math.Float64bits(got[name][i]) != math.Float64bits(v) {
					t.Errorf("%q[%d] = %v, want bits of %v", name, i, got[name][i], v)
				}
			}
		}
		if again := mustEncode(got); !bytes.Equal(again, buf) {
			t.Errorf("re-encode of %v differs: %x vs %x", m, again, buf)
		}
	}
}

// TestEntryCodecEmptyVector: a zero-count vector decodes as nil with
// its name kept — what a JSON null did before the codec. Warm runs
// render vectors as JSON, so an empty non-nil slice would print []
// where the cold run printed null.
func TestEntryCodecEmptyVector(t *testing.T) {
	for _, m := range []Metrics{{"x": nil, "y": {1}}, {"x": {}, "y": {1}}} {
		got, ok := DecodeEntry(mustEncode(m))
		if !ok {
			t.Fatal("empty vector entry rejected")
		}
		vs, present := got["x"]
		if !present || vs != nil {
			t.Errorf("empty vector decoded as %#v (present %v), want nil", vs, present)
		}
	}
}

// TestDecodeEntryVectorsDoNotAlias: decoded vectors share one backing
// array, but appending to one must never overwrite the next.
func TestDecodeEntryVectorsDoNotAlias(t *testing.T) {
	m, ok := DecodeEntry(mustEncode(Metrics{"a": {1}, "b": {2, 3}}))
	if !ok {
		t.Fatal("rejected")
	}
	_ = append(m["a"], 99)
	if !reflect.DeepEqual(m["b"], []float64{2, 3}) {
		t.Fatalf("append to a clobbered b: %v", m["b"])
	}
}

func TestEncodeEntryRefuses(t *testing.T) {
	for name, m := range map[string]Metrics{
		"nil map": nil,
		"NaN":     {"v": {math.NaN()}},
		"+Inf":    {"a": {1}, "v": {math.Inf(1)}},
		"-Inf":    {"v": {2, math.Inf(-1)}},
	} {
		if buf, err := EncodeEntry(m); err == nil {
			t.Errorf("%s: encoded as %x, want an error", name, buf)
		}
	}
}

// TestDecodeEntryRejects: every non-canonical or damaged form is
// corrupt, and a rejection allocates nothing — a hostile count or
// length never reaches make.
func TestDecodeEntryRejects(t *testing.T) {
	v := []byte{entryVersion}
	good := mustEncode(Metrics{"a": {1}, "b": {2, 3}})
	for name, buf := range map[string][]byte{
		"empty":             {},
		"wrong version":     append([]byte{2}, good[1:]...),
		"JSON-era entry":    []byte(`{"a":[1]}`),
		"JSON null":         []byte(`null`),
		"truncated value":   good[:len(good)-1],
		"truncated name":    field(v, "abc", 0)[:3],
		"missing count":     append(append([]byte(nil), v...), 1, 'a'),
		"trailing byte":     append(append([]byte(nil), good...), 0),
		"unsorted":          field(field(v, "b", 1, 1), "a", 1, 1),
		"duplicate":         field(field(v, "a", 1, 1), "a", 1, 2),
		"duplicate empty":   field(field(v, "", 0), "", 0),
		"huge count":        field(v, "a", 1<<60, 1),
		"max count":         field(v, "a", math.MaxUint64, 1),
		"huge name":         append(binary.AppendUvarint(append([]byte(nil), v...), 1<<60), 'a'),
		"padded name len":   append(append([]byte(nil), v...), 0x81, 0x00, 'a', 0),
		"padded count":      append(append([]byte(nil), v...), 1, 'a', 0x80, 0x00),
		"overlong varint":   append(append([]byte(nil), v...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"NaN":               field(v, "a", 1, math.NaN()),
		"+Inf":              field(v, "a", 2, 1, math.Inf(1)),
		"-Inf":              field(v, "a", 1, math.Inf(-1)),
		"count past values": field(v, "a", 3, 1, 2),
	} {
		if m, ok := DecodeEntry(buf); ok || m != nil {
			t.Errorf("%s (%x): decoded as %v, want corrupt", name, buf, m)
		}
		if n := testing.AllocsPerRun(10, func() { DecodeEntry(buf) }); n != 0 {
			t.Errorf("%s: rejection allocated %v times", name, n)
		}
	}
}

// FuzzEntryCodec attacks DecodeEntry directly. For arbitrary bytes it
// must never panic; whatever it accepts must be non-nil and re-encode
// to exactly the input (the codec is canonical, so a hit served from
// any tier is bit-identical to the Put that wrote it); and an accepted
// entry grown by one more field claiming 2^60 floats must be rejected.
// (TestDecodeEntryRejects pins that rejections allocate nothing.)
func FuzzEntryCodec(f *testing.F) {
	valid := mustEncode(Metrics{"lat_ms": {1.5, 2.25}, "ok": {1, 0, 1}, "x": nil})
	f.Add(valid)
	f.Add(mustEncode(Metrics{}))
	f.Add(valid[:len(valid)-5])                           // truncated
	f.Add(append([]byte{entryVersion + 1}, valid[1:]...)) // wrong version
	f.Add([]byte(`{"a":[1]}`))                            // JSON-era entry
	f.Add(field([]byte{entryVersion}, "a", 1<<60, 1))     // huge count

	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := DecodeEntry(data)
		if !ok {
			if m != nil {
				t.Fatalf("rejected %x but returned %v", data, m)
			}
			return
		}
		if m == nil {
			t.Fatalf("accepted %x as nil metrics", data)
		}
		buf, err := EncodeEntry(m)
		if err != nil {
			t.Fatalf("accepted %x does not re-encode: %v", data, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("accepted %x re-encodes as %x", data, buf)
		}
		// Names sort bytewise, so a name of 0xff bytes longer than any
		// accepted one sorts last and keeps the entry ordered: only the
		// count can make it corrupt.
		last := string(bytes.Repeat([]byte{0xff}, len(data)+1))
		if _, ok := DecodeEntry(field(bytes.Clone(data), last, 1<<60, 1)); ok {
			t.Fatalf("entry %x plus a 2^60-float field accepted", data)
		}
	})
}

// TestEngineNeverCachesNonFiniteUnit: a unit whose metrics hold NaN
// or ±Inf fails its Put (counted PutFailed) and recomputes on every
// run, while its finite siblings are cached.
func TestEngineNeverCachesNonFiniteUnit(t *testing.T) {
	spec := &Spec{
		Name:   "nonfinite",
		Axes:   []Axis{{Name: "v", Values: []string{"nan", "inf", "one"}}},
		Trials: 2,
		Seed:   1,
		Epoch:  "v1",
		Trial: func(cell Cell, _ int64, _ int) Metrics {
			m := NewMetrics()
			switch cell.Get("v") {
			case "nan":
				m.Add("x", math.NaN())
			case "inf":
				m.Add("x", math.Inf(-1))
			default:
				m.Add("x", 1)
			}
			return m
		},
	}
	e := &Engine{Store: NewMemStore(1 << 20), Workers: 2}
	for run := 0; run < 2; run++ {
		_, stats := e.Run(spec)
		if stats.PutFailed != 4 {
			t.Errorf("run %d: PutFailed = %d, want the 4 non-finite units", run, stats.PutFailed)
		}
		if want := []int{6, 4}[run]; stats.Computed != want {
			t.Errorf("run %d: computed %d units, want %d", run, stats.Computed, want)
		}
	}
}
