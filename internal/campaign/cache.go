package campaign

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// markerName tags a directory as a campaign cache so Clean never
// deletes a directory the cache did not create. The format follows
// the CACHEDIR.TAG convention.
const markerName = "CACHEDIR.TAG"

const markerContent = "Signature: 8a477f597d28d172789f06886806bc55\n" +
	"# This directory is a silenttracker campaign result cache.\n" +
	"# See internal/campaign; safe to delete with `stcampaign clean`.\n"

// segDirName is the cache subdirectory holding the segment files, and
// segExt their suffix.
const (
	segDirName = "seg"
	segExt     = ".seg"
)

// recHeader is a record's fixed prefix: the entry length and the
// CRC-32C of hash+entry (both little-endian uint32), then the unit
// hash in binary.
const recHeader = 4 + 4 + sha256.Size

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DiskStore is the content-addressed on-disk result store: an
// append-only log of framed records in segment files under
// <dir>/seg/. A record is [len | crc32c | 32-byte hash | entry], the
// entry being the canonical binary encoding every tier shares
// (EncodeEntry). Each store appends to one segment of its own,
// created with O_EXCL on its first Put (so two stores never write the
// same file), and every Put is a single write; an in-memory index
// maps each hash to the segment, offset and length of its latest
// record. It is the durable middle tier of a Tiered store, and the
// default store on its own.
//
// Visibility: Open indexes every intact record already in the
// directory, and a Get that misses the index re-scans the directory
// for records appended since (by other stores, in this process or
// another) before reporting a miss. So every Put that completed
// before a Get began is a hit through any store on the directory.
//
// Torn tails: a scan stops at a segment's first record that is cut
// short or fails its CRC (a write cut off by a killed run, or one
// still in progress). Such a record is never served; every intact
// record before it is. Get re-reads the record and re-checks its
// length, CRC and hash, so damage after indexing counts corrupt and
// reads as a miss.
type DiskStore struct {
	dir   string
	stats counters

	// scanMu serialises directory scans and the creation of the
	// store's own segment, so a scan never mistakes that segment for
	// another store's.
	scanMu  sync.Mutex
	scanned map[string]*segScan
	br      *bufio.Reader

	mu   sync.RWMutex
	segs []string // segment file names; loc.seg indexes this
	idx  map[[sha256.Size]byte]loc
	own  *os.File // the store's own segment, nil before the first Put
	// ownSeg is own's index in segs.
	ownSeg int32

	// wmu serialises appends to own.
	wmu    sync.Mutex
	end    int64 // size of own: where the next record goes
	frame  []byte
	closed bool
}

// loc is where a record's entry lives: segment, record offset, and
// entry length.
type loc struct {
	seg int32
	n   uint32
	off int64
}

// segScan is how far a scan has indexed one segment.
type segScan struct {
	seg  int32
	end  int64 // offset just past the last intact record
	size int64 // file size at the last scan: unchanged means nothing new
	own  bool  // the store's own segment: indexed by Put, never scanned
}

// DiskStore implements Store.
var _ Store = (*DiskStore)(nil)

// Open creates (if needed) and opens a cache directory, indexing the
// records already in it. It refuses to adopt a pre-existing non-empty
// directory that does not carry the cache marker: stamping arbitrary
// directories would arm Clean against data the cache does not own.
//
// Open is safe to race with itself across goroutines and processes:
// the marker is created with O_EXCL, so exactly one opener writes it
// and every other opener tolerates it already existing.
func Open(dir string) (*DiskStore, error) {
	marker := filepath.Join(dir, markerName)
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		if _, err := os.Stat(marker); errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("campaign: %s exists, is not empty, and is not a campaign cache (missing %s); refusing to adopt it", dir, markerName)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open cache: %w", err)
	}
	if err := writeMarker(marker); err != nil {
		return nil, fmt.Errorf("campaign: open cache: %w", err)
	}
	c := &DiskStore{
		dir:     dir,
		scanned: make(map[string]*segScan),
		idx:     make(map[[sha256.Size]byte]loc),
	}
	c.refresh()
	return c, nil
}

// writeMarker creates the cache marker idempotently: the O_EXCL
// create means two concurrent Opens of a fresh directory never
// interleave writes into the same file — the loser simply observes
// the winner's marker. A half-written marker from a failed write is
// removed so a retry can recreate it.
func writeMarker(marker string) error {
	f, err := os.OpenFile(marker, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, os.ErrExist) {
		return nil // another Open (possibly in another process) won the race
	}
	if err != nil {
		return err
	}
	_, werr := f.WriteString(markerContent)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(marker)
		return errors.Join(werr, cerr)
	}
	return nil
}

// parseHash decodes a unit hash, which must be exactly 64 lowercase
// hex characters (a SHA-256 in hex). Anything else names no entry.
func parseHash(hash string) (key [sha256.Size]byte, ok bool) {
	if len(hash) != 2*sha256.Size || strings.ToLower(hash) != hash {
		return key, false
	}
	_, err := hex.Decode(key[:], []byte(hash))
	return key, err == nil
}

func (c *DiskStore) segDir() string { return filepath.Join(c.dir, segDirName) }

// refresh indexes every intact record appended to other stores'
// segments since the last scan. Best-effort: an unreadable directory
// or segment only costs misses.
func (c *DiskStore) refresh() {
	c.scanMu.Lock()
	defer c.scanMu.Unlock()
	entries, err := os.ReadDir(c.segDir())
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		s := c.scanned[name]
		if !strings.HasSuffix(name, segExt) || (s != nil && s.own) {
			continue
		}
		info, err := e.Info()
		if err != nil || (s != nil && info.Size() == s.size) {
			continue
		}
		if s == nil {
			c.mu.Lock()
			s = &segScan{seg: int32(len(c.segs))}
			c.segs = append(c.segs, name)
			c.mu.Unlock()
			c.scanned[name] = s
		}
		s.size = info.Size()
		s.end = c.scanSegment(filepath.Join(c.segDir(), name), s.seg, s.end, s.size)
	}
}

// scanSegment streams one segment's records in [off, size) into the
// index and returns the offset just past the last intact one.
func (c *DiskStore) scanSegment(path string, seg int32, off, size int64) int64 {
	f, err := os.Open(path)
	if err != nil {
		return off
	}
	defer f.Close()
	if c.br == nil {
		c.br = bufio.NewReaderSize(nil, 64<<10)
	}
	r := c.br
	r.Reset(io.NewSectionReader(f, off, size-off))
	var hdr [recHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > maxEntryBytes || off+recHeader+int64(n) > size {
			return off
		}
		crc := crc32.Update(0, crcTable, hdr[8:])
		for rem := int(n); rem > 0; {
			chunk, err := r.Peek(min(rem, r.Size()))
			if err != nil {
				return off
			}
			crc = crc32.Update(crc, crcTable, chunk)
			r.Discard(len(chunk))
			rem -= len(chunk)
		}
		if crc != binary.LittleEndian.Uint32(hdr[4:8]) {
			return off
		}
		c.mu.Lock()
		c.idx[[sha256.Size]byte(hdr[8:])] = loc{seg: seg, n: n, off: off}
		c.mu.Unlock()
		off += recHeader + int64(n)
	}
}

func (c *DiskStore) lookup(key [sha256.Size]byte) (loc, bool) {
	c.mu.RLock()
	l, ok := c.idx[key]
	c.mu.RUnlock()
	return l, ok
}

// Get loads the metrics stored under the hash. A missing entry (or a
// malformed hash) is a miss; a present but unreadable one (torn
// record, damaged bytes, an undecodable entry) is counted corrupt and
// served as a miss — never an error: the engine just recomputes the
// unit.
func (c *DiskStore) Get(hash string) (Metrics, bool) {
	key, ok := parseHash(hash)
	if !ok {
		c.stats.misses.Add(1)
		return nil, false
	}
	l, ok := c.lookup(key)
	if !ok {
		c.refresh()
		l, ok = c.lookup(key)
	}
	if !ok {
		c.stats.misses.Add(1)
		return nil, false
	}
	entry, ok := c.read(key, l)
	if !ok {
		c.stats.corrupt.Add(1)
		return nil, false
	}
	m, ok := DecodeEntry(entry)
	if !ok {
		c.stats.corrupt.Add(1)
		return nil, false
	}
	c.stats.hits.Add(1)
	return m, true
}

// read fetches the record at l with one pread and returns its entry
// bytes if the record is intact and carries key.
func (c *DiskStore) read(key [sha256.Size]byte, l loc) ([]byte, bool) {
	var f *os.File
	c.mu.RLock()
	name := c.segs[l.seg]
	if l.seg == c.ownSeg {
		f = c.own // nil before the first Put, when ownSeg means nothing
	}
	c.mu.RUnlock()
	if f == nil {
		var err error
		if f, err = os.Open(filepath.Join(c.segDir(), name)); err != nil {
			return nil, false
		}
		defer f.Close()
	}
	buf := make([]byte, recHeader+int(l.n))
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return nil, false
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != l.n ||
		binary.LittleEndian.Uint32(buf[4:8]) != crc32.Checksum(buf[8:], crcTable) ||
		[sha256.Size]byte(buf[8:recHeader]) != key {
		return nil, false
	}
	return buf[recHeader:], true
}

// Put appends the metrics under the hash as one record.
func (c *DiskStore) Put(hash string, m Metrics) error {
	buf, err := EncodeEntry(m)
	if err == nil {
		err = c.putRaw(hash, buf)
	}
	if err != nil {
		c.stats.errors.Add(1)
	}
	return err
}

// putRaw frames pre-encoded entry bytes and appends them to the
// store's own segment, creating it on the first call.
func (c *DiskStore) putRaw(hash string, entry []byte) error {
	key, ok := parseHash(hash)
	if !ok {
		return fmt.Errorf("campaign: cache put: malformed unit hash %q", hash)
	}
	if len(entry) > maxEntryBytes {
		return fmt.Errorf("campaign: cache put: entry exceeds %d bytes", maxEntryBytes)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return fmt.Errorf("campaign: cache put: %w", os.ErrClosed)
	}
	if c.own == nil {
		if err := c.createSegment(); err != nil {
			return fmt.Errorf("campaign: cache put: %w", err)
		}
	}
	c.frame = appendRecord(c.frame[:0], key, entry)
	// A failed write leaves end where it was, so the next Put
	// overwrites whatever part of this record reached the file.
	if _, err := c.own.WriteAt(c.frame, c.end); err != nil {
		return fmt.Errorf("campaign: cache put: %w", err)
	}
	c.mu.Lock()
	c.idx[key] = loc{seg: c.ownSeg, n: uint32(len(entry)), off: c.end}
	c.mu.Unlock()
	c.end += int64(len(c.frame))
	return nil
}

// appendRecord appends the framed record for entry under key to dst.
func appendRecord(dst []byte, key [sha256.Size]byte, entry []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entry)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC, filled below
	dst = append(append(dst, key[:]...), entry...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], crcTable))
	return dst
}

// createSegment creates the store's own segment, under seg/ (made on
// the first Put, so a store that never writes leaves only the
// marker). The caller holds wmu.
func (c *DiskStore) createSegment() error {
	if err := os.MkdirAll(c.segDir(), 0o755); err != nil {
		return err
	}
	c.scanMu.Lock()
	defer c.scanMu.Unlock()
	f, err := os.CreateTemp(c.segDir(), "*"+segExt) // O_EXCL
	if err != nil {
		return err
	}
	name := filepath.Base(f.Name())
	c.mu.Lock()
	c.own, c.ownSeg = f, int32(len(c.segs))
	c.segs = append(c.segs, name)
	c.mu.Unlock()
	c.scanned[name] = &segScan{seg: c.ownSeg, own: true}
	return nil
}

// Stats returns the store's single tier of counters.
func (c *DiskStore) Stats() []TierStats {
	return []TierStats{c.stats.snapshot("disk")}
}

// Close releases the store's own segment. Every record is already in
// the file at Put; Close adds nothing to it.
func (c *DiskStore) Close() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.closed = true
	if c.own == nil {
		return nil
	}
	return c.own.Close()
}

// Entries returns how many distinct units the directory holds.
func (c *DiskStore) Entries() (int, error) {
	c.refresh()
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.idx), nil
}

// Clean removes a cache directory. It refuses to delete a directory
// that does not carry the cache marker, so a mistyped -cache-dir can
// never destroy user data. A nonexistent directory is a no-op.
func Clean(dir string) error {
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return nil
	}
	buf, err := os.ReadFile(filepath.Join(dir, markerName))
	if err != nil || string(buf) != markerContent {
		return fmt.Errorf("campaign: %s is not a campaign cache (missing %s); not removing", dir, markerName)
	}
	return os.RemoveAll(dir)
}
