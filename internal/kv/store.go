package kv

import (
	"container/list"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/telemetry"
)

// Config sizes a Store.
type Config struct {
	// Shards is the number of independently locked store shards; keys
	// route to shards by their hash (shardOf). 0 defaults to 16. More
	// shards = more concurrent gets/sets, one partly carved chunk of
	// remote memory pinned per size class in use per shard.
	Shards int
	// MaxBytes caps the live value-heap footprint across all shards;
	// past it the store evicts least-recently-used entries
	// (memcached semantics: it is a cache, not a database). 0 = no cap.
	MaxBytes uint64
	// Metrics receives hit/miss/set/delete/eviction counters and
	// footprint gauges (DESIGN.md §12); Stats reads the counters back, so
	// one registry serves one store. nil keeps them in a private registry.
	Metrics *telemetry.Registry
}

// StoreStats is a point-in-time summary across shards.
type StoreStats struct {
	Keys      uint64
	LiveBytes uint64 // block bytes held by the index
	Chunks    int    // MallocBlocks chunks taken by the heaps, one class each
	Hits      uint64
	Misses    uint64
	Sets      uint64
	Deletes   uint64
	Evictions uint64 // LRU budget evictions
	Corrupt   uint64 // records that failed integrity checks
}

// Store is the sharded KV store: local index, remote values. Safe for
// concurrent use; virtual timestamps are per-caller, as everywhere in
// the runtime (DESIGN.md §9).
type Store struct {
	rt     Runtime
	shards []*storeShard
	seq    atomic.Uint64 // record write sequence, for torn-write forensics
	clock  atomic.Int64  // high-water virtual time across callers
	m      storeMetrics
}

type storeMetrics struct {
	hits, misses, sets, deletes, evictions, corrupt, cachedReuses *telemetry.Counter
	keys, liveBytes                                               *telemetry.Gauge
}

type storeShard struct {
	mu      sync.Mutex
	idx     map[string]entry
	lru     *list.List // front = most recently used; values are keys
	heap    *valueHeap
	budget  uint64 // heap.liveBytes cap, 0 = unlimited
	scratch []byte // record encode/decode buffer, guarded by mu
}

type entry struct {
	addr   mem.Addr
	class  int8
	valLen uint32
	flags  uint32 // memcached's opaque client cookie, kept locally
	elem   *list.Element
}

// NewStore builds a store over a runtime. It performs no allocation up
// front; remote chunks are carved as shards first see writes.
func NewStore(rt Runtime, cfg Config) *Store {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	s := &Store{
		rt:     rt,
		shards: make([]*storeShard, cfg.Shards),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.New(0)
	}
	s.m = storeMetrics{
		hits:         reg.Counter("kv.hits"),
		misses:       reg.Counter("kv.misses"),
		sets:         reg.Counter("kv.sets"),
		deletes:      reg.Counter("kv.deletes"),
		evictions:    reg.Counter("kv.evictions"),
		corrupt:      reg.Counter("kv.corrupt"),
		cachedReuses: reg.Counter("kv.heap.cached_reuses"),
		keys:         reg.Gauge("kv.keys"),
		liveBytes:    reg.Gauge("kv.live_bytes"),
	}
	for i := range s.shards {
		s.shards[i] = &storeShard{
			idx:    make(map[string]entry),
			lru:    list.New(),
			heap:   newValueHeap(rt, s.m.cachedReuses),
			budget: cfg.MaxBytes / uint64(cfg.Shards),
		}
	}
	return s
}

// shardOf routes a key hash to one of n shards: the high 64 bits of h × n,
// which maps the uniform hash uniformly onto [0, n) without a division.
func shardOf(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

func (s *Store) shardFor(key string) *storeShard {
	return s.shards[shardOf(hashKey(key), len(s.shards))]
}

// keyBytes is a key as either form the store is handed: the string API,
// or the server's slice of its command line. One generic implementation
// serves both; only routing (shardFor / hashKeyBytes) differs.
type keyBytes interface{ string | []byte }

// advance folds a caller's virtual time into the store's high-water
// clock (used by the background syncer, which has no caller clock).
func (s *Store) advance(t simclock.Duration) {
	for {
		cur := s.clock.Load()
		if int64(t) <= cur || s.clock.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Clock returns the high-water virtual time observed across callers.
func (s *Store) Clock() simclock.Duration { return simclock.Duration(s.clock.Load()) }

func (sh *storeShard) grow(n int) []byte {
	if cap(sh.scratch) < n {
		sh.scratch = make([]byte, n+n/2)
	}
	return sh.scratch[:n]
}

// Get fetches key's value, appending it to dst (pass nil to allocate).
// ok reports whether the key was present; flags is the cookie stored
// with it. A record failing integrity checks returns ErrCorrupt — it is
// counted, the entry dropped, and the block quarantined (not recycled).
func (s *Store) Get(now simclock.Duration, key string, dst []byte) (val []byte, flags uint32, t simclock.Duration, ok bool, err error) {
	return get(s, s.shardFor(key), now, key, dst)
}

// GetBytes is Get for a key held as bytes (the server's parsed command
// line); it neither retains key nor builds a string from it.
func (s *Store) GetBytes(now simclock.Duration, key, dst []byte) (val []byte, flags uint32, t simclock.Duration, ok bool, err error) {
	return get(s, s.shards[shardOf(hashKeyBytes(key), len(s.shards))], now, key, dst)
}

func get[K keyBytes](s *Store, sh *storeShard, now simclock.Duration, key K, dst []byte) (val []byte, flags uint32, t simclock.Duration, ok bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, present := sh.idx[string(key)]
	if !present {
		s.m.misses.Inc()
		return nil, 0, now, false, nil
	}
	n := recordSize(len(key), int(e.valLen))
	buf := sh.grow(n)
	t, err = s.rt.Read(now, e.addr, buf)
	s.advance(t)
	if err != nil {
		return nil, 0, t, false, fmt.Errorf("kv: get %q: %w", string(key), err)
	}
	v, _, derr := decodeRecord(buf, key)
	if derr != nil {
		s.m.corrupt.Inc()
		sh.dropLocked(string(key), e, false, &s.m)
		return nil, 0, t, false, derr
	}
	sh.lru.MoveToFront(e.elem)
	s.m.hits.Inc()
	return append(dst[:0], v...), e.flags, t, true, nil
}

// Set stores key=value: encode the record, place it in a fresh heap
// block, write it through the runtime (FMem + dirty tracking), then
// flip the index entry and recycle the old block. The new block is
// written before the index flips, so a concurrent crash of a memory
// node can tear at worst an unacknowledged write.
func (s *Store) Set(now simclock.Duration, key string, value []byte, flags uint32) (t simclock.Duration, err error) {
	return set(s, s.shardFor(key), now, key, value, flags)
}

// SetBytes is Set for a key held as bytes; the store copies the key only
// when it is new.
func (s *Store) SetBytes(now simclock.Duration, key, value []byte, flags uint32) (t simclock.Duration, err error) {
	return set(s, s.shards[shardOf(hashKeyBytes(key), len(s.shards))], now, key, value, flags)
}

func set[K keyBytes](s *Store, sh *storeShard, now simclock.Duration, key K, value []byte, flags uint32) (t simclock.Duration, err error) {
	if len(key) > maxKeyLen || len(value) > maxValueLen {
		return now, fmt.Errorf("%w: key %d bytes, value %d bytes", ErrTooLarge, len(key), len(value))
	}
	n := recordSize(len(key), len(value))
	seq := s.seq.Add(1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	addr, class, err := sh.heap.alloc(n)
	if err != nil {
		return now, err
	}
	w := writeLen(n)
	buf := sh.grow(w)
	encodeRecord(buf[:n], key, value, seq)
	clear(buf[n:])
	t, err = s.rt.Write(now, addr, buf)
	s.advance(t)
	if err != nil {
		sh.heap.release(addr, class)
		return t, fmt.Errorf("kv: set %q: %w", string(key), err)
	}
	s.m.liveBytes.Add(int64(blockBytes(class)))
	e := entry{addr: addr, class: int8(class), valLen: uint32(len(value)), flags: flags}
	if old, present := sh.idx[string(key)]; present {
		sh.heap.release(old.addr, int(old.class))
		s.m.liveBytes.Add(-int64(blockBytes(int(old.class))))
		// An overwrite keeps the key's LRU element, and with it the
		// store's own copy of the key.
		e.elem = old.elem
		sh.lru.MoveToFront(e.elem)
		sh.idx[e.elem.Value.(string)] = e
	} else {
		s.m.keys.Inc()
		owned := string(key)
		e.elem = sh.lru.PushFront(owned)
		sh.idx[owned] = e
	}
	s.m.sets.Inc()
	sh.evictOverBudgetLocked(&s.m)
	return t, nil
}

// Delete removes key; ok reports whether it was present.
func (s *Store) Delete(now simclock.Duration, key string) (t simclock.Duration, ok bool, err error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, present := sh.idx[key]
	if !present {
		return now, false, nil
	}
	sh.dropLocked(key, e, true, &s.m)
	s.m.deletes.Inc()
	return now, true, nil
}

// dropLocked removes an index entry. recycle=false quarantines the
// block (corrupt records: leaking one block beats handing a poisoned
// address back out).
func (sh *storeShard) dropLocked(key string, e entry, recycle bool, m *storeMetrics) {
	if recycle {
		sh.heap.release(e.addr, int(e.class))
	} else {
		sh.heap.liveBytes -= blockBytes(int(e.class))
	}
	sh.lru.Remove(e.elem)
	delete(sh.idx, key)
	m.keys.Dec()
	m.liveBytes.Add(-int64(blockBytes(int(e.class))))
}

// evictOverBudgetLocked walks the LRU tail until the shard's live bytes
// fit the budget again — the memcached capacity regime, surfaced
// through the kv.evictions counter so a load run can tell cache
// pressure from misses.
func (sh *storeShard) evictOverBudgetLocked(m *storeMetrics) {
	if sh.budget == 0 {
		return
	}
	for sh.heap.liveBytes > sh.budget && sh.lru.Len() > 1 {
		tail := sh.lru.Back()
		key := tail.Value.(string)
		e := sh.idx[key]
		sh.dropLocked(key, e, true, m)
		m.evictions.Inc()
	}
}

// Sync drains the runtime's cache-line log to the memory nodes (and,
// after a repair, picks up placement flips). The kvd daemon calls this
// on a timer.
func (s *Store) Sync(now simclock.Duration) (simclock.Duration, error) {
	if now < s.Clock() {
		now = s.Clock()
	}
	t, err := s.rt.Sync(now)
	s.advance(t)
	return t, err
}

// Stats reads the kv.* counters and sums the shards' footprints. It takes
// every shard lock briefly, so it is consistent per shard but not across
// shards — fine for stats.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Hits:      s.m.hits.Value(),
		Misses:    s.m.misses.Value(),
		Sets:      s.m.sets.Value(),
		Deletes:   s.m.deletes.Value(),
		Evictions: s.m.evictions.Value(),
		Corrupt:   s.m.corrupt.Value(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Keys += uint64(len(sh.idx))
		st.LiveBytes += sh.heap.liveBytes
		st.Chunks += sh.heap.chunkCount
		sh.mu.Unlock()
	}
	return st
}
