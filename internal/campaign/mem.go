package campaign

import (
	"container/list"
	"sync"
)

// memOverhead is the accounting estimate for one entry's fixed cost
// beyond its payload bytes: map slot, list element, headers.
const memOverhead = 96

// MemStore is a size-budgeted in-memory LRU store — the hot tier in
// front of a DiskStore or HTTPStore, or a process-local cache on its
// own. Entries are kept in their canonical encoded form (the same
// bytes the disk store writes) and decoded on Get, so a mem hit is
// bit-for-bit the value a disk hit would have produced: the tier mix
// can never change rendered output, only how many units recompute.
//
// When an insert pushes the accounted size past the budget, least
// recently used entries are evicted until it fits again. The entry
// just written survives even if it alone exceeds the budget, so the
// store always holds at least the most recent unit (a tiny budget
// degrades to a 1-entry cache, not a useless one).
type MemStore struct {
	budget int64

	mu   sync.Mutex
	used int64
	lru  *list.List // of *memEntry; front = most recently used
	idx  map[string]*list.Element

	stats counters
}

type memEntry struct {
	hash string
	buf  []byte
}

// MemStore implements Store.
var _ Store = (*MemStore)(nil)

// NewMemStore builds a mem store with the given byte budget. A
// budget of zero (or less) keeps exactly the most recent entry.
func NewMemStore(budget int64) *MemStore {
	return &MemStore{
		budget: budget,
		lru:    list.New(),
		idx:    make(map[string]*list.Element),
	}
}

func entryCost(e *memEntry) int64 {
	return int64(len(e.hash)+len(e.buf)) + memOverhead
}

// Get returns the entry stored under the hash, marking it most
// recently used. An undecodable entry (possible only via a damaged
// backfill) counts corrupt, is dropped, and reads as a miss.
func (s *MemStore) Get(hash string) (Metrics, bool) {
	s.mu.Lock()
	el, ok := s.idx[hash]
	var buf []byte
	if ok {
		s.lru.MoveToFront(el)
		buf = el.Value.(*memEntry).buf
	}
	s.mu.Unlock()
	if !ok {
		s.stats.misses.Add(1)
		return nil, false
	}
	m, ok := DecodeEntry(buf)
	if !ok {
		// A corrupt entry can never become a hit; drop it so the slot
		// is reusable and the corrupt count reflects distinct entries.
		s.stats.corrupt.Add(1)
		s.drop(hash)
		return nil, false
	}
	s.stats.hits.Add(1)
	return m, true
}

// Put stores the metrics under the hash, evicting least recently
// used entries as needed to respect the budget.
func (s *MemStore) Put(hash string, m Metrics) error {
	buf, err := EncodeEntry(m)
	if err != nil {
		s.stats.errors.Add(1)
		return err
	}
	s.putRaw(hash, buf)
	return nil
}

// putRaw inserts pre-encoded entry bytes (also the corrupt-entry
// injection point for tests) and runs the eviction sweep.
func (s *MemStore) putRaw(hash string, buf []byte) {
	e := &memEntry{hash: hash, buf: buf}
	s.mu.Lock()
	if el, ok := s.idx[hash]; ok {
		old := el.Value.(*memEntry)
		s.used += entryCost(e) - entryCost(old)
		el.Value = e
		s.lru.MoveToFront(el)
	} else {
		s.idx[hash] = s.lru.PushFront(e)
		s.used += entryCost(e)
	}
	// Evict from the cold end until the budget holds, but never the
	// entry just written (len>1): the newest unit always survives.
	for s.used > s.budget && s.lru.Len() > 1 {
		back := s.lru.Back()
		victim := back.Value.(*memEntry)
		s.lru.Remove(back)
		delete(s.idx, victim.hash)
		s.used -= entryCost(victim)
		s.stats.evicted.Add(1)
	}
	s.mu.Unlock()
}

// drop removes the entry without counting an eviction (used for
// corrupt entries, which are counted separately).
func (s *MemStore) drop(hash string) {
	s.mu.Lock()
	if el, ok := s.idx[hash]; ok {
		s.used -= entryCost(el.Value.(*memEntry))
		s.lru.Remove(el)
		delete(s.idx, hash)
	}
	s.mu.Unlock()
}

// Len returns how many entries the store currently holds.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats returns the store's single tier of counters.
func (s *MemStore) Stats() []TierStats {
	return []TierStats{s.stats.snapshot("mem")}
}

// Close drops every entry.
func (s *MemStore) Close() error {
	s.mu.Lock()
	s.lru.Init()
	s.idx = make(map[string]*list.Element)
	s.used = 0
	s.mu.Unlock()
	return nil
}
