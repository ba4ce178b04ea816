package campaign

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// entryVersion is the first byte of every encoded store entry. An
// entry with any other first byte is corrupt; in particular every
// entry of the earlier JSON encoding starts with '{', so a cache
// written before the binary codec reads as a counted corrupt miss
// once and is overwritten by the recomputed unit.
const entryVersion byte = 1

// EncodeEntry encodes metrics into the canonical entry form every
// backend stores and storehttp ships, so entries are portable across
// tiers byte for byte. The layout is the version byte, then for each
// name in strictly increasing order: uvarint len(name), the name,
// uvarint count, and count little-endian float64 bit patterns.
//
// Non-finite values and a nil map are refused, so such a unit is
// never cached: the decoder would reject the first, and the second
// has no encoding that reads back as nil.
func EncodeEntry(m Metrics) ([]byte, error) {
	if m == nil {
		return nil, errors.New("campaign: encode entry: nil metrics")
	}
	names := m.Names()
	size := 1
	for _, name := range names {
		vs := m[name]
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("campaign: encode entry: %q holds non-finite value %v", name, v)
			}
		}
		size += uvarintLen(len(name)) + len(name) + uvarintLen(len(vs)) + 8*len(vs)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, entryVersion)
	for _, name := range names {
		vs := m[name]
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, uint64(len(vs)))
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

// DecodeEntry decodes one stored entry's bytes. ok=false means the
// entry is corrupt: a wrong version byte, a short or padded varint,
// names out of order or repeated, a count past the end of the body,
// a non-finite value, or trailing bytes. Every accepted entry
// re-encodes to exactly the same bytes. The whole entry is validated
// before anything is allocated; the vectors then share one backing
// array (each capped at its own length, so appending to one never
// touches the next), and a zero count decodes as a nil vector.
func DecodeEntry(buf []byte) (Metrics, bool) {
	if len(buf) == 0 || buf[0] != entryVersion {
		return nil, false
	}
	var names, nameBytes, floats int
	var prev []byte
	for off := 1; off < len(buf); {
		name, count, next, ok := entryField(buf, off)
		if !ok || (names > 0 && bytes.Compare(prev, name) >= 0) {
			return nil, false
		}
		for i := next - 8*count; i < next; i += 8 {
			if binary.LittleEndian.Uint64(buf[i:])&expMask == expMask {
				return nil, false // NaN or ±Inf
			}
		}
		prev = name
		names++
		nameBytes += len(name)
		floats += count
		off = next
	}

	m := make(Metrics, names)
	var sb strings.Builder
	sb.Grow(nameBytes)
	vals := make([]float64, floats)
	for off := 1; off < len(buf); {
		name, count, next, _ := entryField(buf, off)
		// sb never outgrows its Grow, so earlier substrings of it
		// stay valid as later names are appended.
		start := sb.Len()
		sb.Write(name)
		var vs []float64
		if count > 0 {
			vs = vals[:count:count]
			vals = vals[count:]
			for i, p := 0, next-8*count; i < count; i, p = i+1, p+8 {
				vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
			}
		}
		m[sb.String()[start:]] = vs
		off = next
	}
	return m, true
}

// expMask selects a float64's exponent bits; all set means NaN or ±Inf.
const expMask = 0x7ff << 52

// entryField parses the field at buf[off:]: its name and count, and
// the offset just past its values. ok=false if the field is not
// canonical or runs past the end of buf.
func entryField(buf []byte, off int) (name []byte, count, next int, ok bool) {
	n, off, ok := readUvarint(buf, off)
	if !ok || n > uint64(len(buf)-off) {
		return nil, 0, 0, false
	}
	name = buf[off : off+int(n)]
	off += int(n)
	c, off, ok := readUvarint(buf, off)
	if !ok || c > uint64(len(buf)-off)/8 {
		return nil, 0, 0, false
	}
	return name, int(c), off + 8*int(c), true
}

// readUvarint reads the uvarint at buf[off:] and returns it with the
// offset just past it. ok=false for a short, overflowing or
// non-minimal encoding (a trailing zero group), so each value has
// exactly one accepted form.
func readUvarint(buf []byte, off int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 || (n > 1 && buf[off+n-1] == 0) {
		return 0, 0, false
	}
	return v, off + n, true
}

// uvarintLen is the encoded length of n as a uvarint.
func uvarintLen(n int) int {
	return (bits.Len64(uint64(n)|1) + 6) / 7
}
