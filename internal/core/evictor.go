package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kona/internal/cllog"
	"kona/internal/cluster"
	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/telemetry"
)

// evictMetrics is the eviction path's live gauges and batch-flush trace
// events; its counts live in EvictStats and the failure atomics, which
// PublishTelemetry publishes. All handles are nil (no-op) when telemetry
// is disabled.
type evictMetrics struct {
	// inflight tracks ships currently on the wire (0..1 on the inline
	// executor, up to evictInflight on the pipelined one); pendingPages is
	// the page backlog the latest full cycle had to cover; arenaBytes is
	// the arenas' chunk bytes (published by PublishTelemetry). Both move by
	// the difference from this runtime's last value, so runtimes sharing a
	// registry show the sum of their latest values.
	inflight, pendingPages, arenaBytes *telemetry.Gauge
	trace                              *telemetry.Trace
}

func newEvictMetrics(reg *telemetry.Registry) evictMetrics {
	return evictMetrics{
		inflight:     reg.Gauge("core.evict.inflight"),
		pendingPages: reg.Gauge("core.evict.pending_pages"),
		arenaBytes:   reg.Gauge("core.evict.arena_bytes"),
		trace:        reg.Trace(),
	}
}

// Breakdown is the eviction-path time accounting reported in Fig 11c.
type Breakdown struct {
	// Bitmap is time spent scanning dirty bitmaps for segments.
	Bitmap simclock.Duration
	// Copy is time spent copying dirty lines into the RDMA-registered log.
	Copy simclock.Duration
	// RDMAWrite is NIC time for shipping the log.
	RDMAWrite simclock.Duration
	// AckWait is time stalled waiting for the receiver's acknowledgment
	// before reusing log space.
	AckWait simclock.Duration
}

// Total sums the slices.
func (b Breakdown) Total() simclock.Duration {
	return b.Bitmap + b.Copy + b.RDMAWrite + b.AckWait
}

// EvictStats counts eviction activity.
type EvictStats struct {
	PagesEvicted  uint64 // DirtyPages + SilentEvicted, derived by Stats
	DirtyPages    uint64
	Segments      uint64
	LinesShipped  uint64
	PayloadBytes  uint64 // dirty bytes shipped (goodput numerator)
	WireBytes     uint64 // bytes on the wire including headers
	Flushes       uint64
	AcksReceived  uint64
	SilentEvicted uint64 // clean pages dropped without network traffic
	// RemoteEntries is the number of log entries the receivers reported
	// applying — it must equal Segments (per replica) when every flush
	// lands intact.
	RemoteEntries uint64
}

// add accumulates o into s (shard-stat merge).
func (s *EvictStats) add(o EvictStats) {
	s.DirtyPages += o.DirtyPages
	s.Segments += o.Segments
	s.LinesShipped += o.LinesShipped
	s.PayloadBytes += o.PayloadBytes
	s.WireBytes += o.WireBytes
	s.Flushes += o.Flushes
	s.AcksReceived += o.AcksReceived
	s.SilentEvicted += o.SilentEvicted
	s.RemoteEntries += o.RemoteEntries
}

// payloadArena hands out stable payload slices for eviction-log entries
// from fixed chunks. Each chunk counts the batch entries that alias it;
// one back at zero is rewound if active, else free-listed (past the
// list's cap, dropped to the GC). So the arena holds what unshipped
// entries alias plus a few spare chunks, and a steady state allocates
// nothing. Guarded by the owning shard's mu.
type payloadArena struct {
	sh     *evictShard // owner, whose mu guards the arena and its chunks
	active *arenaChunk
	free   []*arenaChunk
	size   int // bytes per chunk; an entry (at most a page) always fits
	held   int // chunks in use or free-listed, for core.evict.arena_bytes
}

// arenaChunk is one fixed slab of an arena; len(buf) is the used prefix.
type arenaChunk struct {
	buf  []byte
	refs int // batch entries aliasing buf
	sh   *evictShard
}

const arenaFreeChunks = 2 // cap on each arena's free list

// copyIn copies data into the active chunk, charges the chunk refs times,
// and returns a stable alias with the chunk that backs it.
func (a *payloadArena) copyIn(data []byte, refs int) ([]byte, *arenaChunk) {
	c := a.active
	if c != nil && c.refs == 0 {
		c.buf = c.buf[:0]
	}
	if c == nil || len(c.buf)+len(data) > cap(c.buf) {
		// A charged chunk retires here; its last release frees it.
		if n := len(a.free); n > 0 {
			c, a.free = a.free[n-1], a.free[:n-1]
		} else {
			c = &arenaChunk{buf: make([]byte, 0, a.size), sh: a.sh}
			a.held++
		}
		a.active = c
	}
	off := len(c.buf)
	c.buf = c.buf[:off+len(data)]
	p := c.buf[off : off+len(data) : off+len(data)]
	copy(p, data)
	c.refs += refs
	return p, c
}

// release drops n charges from c. A retired chunk that reaches zero is
// rewound onto the free list, or dropped once the list is full.
func (a *payloadArena) release(c *arenaChunk, n int) {
	if c.refs -= n; c.refs > 0 || c == a.active {
		return
	}
	c.buf = c.buf[:0]
	if len(a.free) < arenaFreeChunks {
		a.free = append(a.free, c)
	} else {
		a.held--
	}
}

// entryList is a batch's log entries and, run-length encoded, the arena
// chunk each one aliases: runs[i] covers the next runs[i].n entries. Kept
// beside the entries, not in them, so cllog.Entry stays 32 bytes.
type entryList struct {
	entries []cllog.Entry
	runs    []chunkRun
}

// chunkRun is a run of consecutive entries whose payloads share a chunk.
type chunkRun struct {
	c *arenaChunk
	n int
}

func addRun(runs []chunkRun, c *arenaChunk, n int) []chunkRun {
	if k := len(runs) - 1; k >= 0 && runs[k].c == c {
		runs[k].n += n
		return runs
	}
	return append(runs, chunkRun{c, n})
}

// add appends en, whose payload c backs.
func (l *entryList) add(en cllog.Entry, c *arenaChunk) {
	l.entries = append(l.entries, en)
	l.runs = addRun(l.runs, c, 1)
}

// reset empties the list, clearing it so its backing arrays pin no chunk.
func (l *entryList) reset() {
	clear(l.entries)
	clear(l.runs)
	l.entries, l.runs = l.entries[:0], l.runs[:0]
}

// release drops every entry's charge on its chunk (one shard lock per
// run) and empties the list. Only the fold calls it, after the batch's
// ship waited out the node's previous ack. Caller holds flushMu.
func (l *entryList) release() {
	for _, r := range l.runs {
		r.c.sh.mu.Lock()
		r.c.sh.arena.release(r.c, r.n)
		r.c.sh.mu.Unlock()
	}
	l.reset()
}

// evictor is KLib's Eviction Handler (§4.4): it aggregates dirty cache
// lines — from any page, contiguous or not — into a ring-buffer log
// registered for RDMA, ships the log with a single write per destination
// node, and waits (asynchronously) for the Cache-line Log Receiver's
// acknowledgment before reusing the space. With replication enabled the
// log is shipped to every replica (§4.5).
//
// Concurrency (DESIGN.md §9): the append side — bitmap scan, arena copy,
// per-node entry buffering, pending-page tracking — is partitioned into
// power-of-two lock-striped shards keyed by the victim's page, so
// evictions issued concurrently from different FMem stripes never
// serialize against each other. The flush side is one cycle, serialized
// by flushMu (cycleLocked): re-apply the replica moves, *harvest* every
// shard's buffered entries into the per-node merge batches (one pass, one
// shard lock at a time), ship each destination, then fold every ship's
// outcome into stats, retained entries and member state. A cycle costs
// what is pending and buffered now, never what once was. Per-node byte
// counts are kept globally (atomic) so threshold semantics — flush node N
// once its buffered bytes cross the limit — are identical at any shard
// count.
//
// The ship step has two executors, chosen from what the transport is
// (shipAllLocked): inline on the simulated fabric, pipelined over TCP.
type evictor struct {
	rm *resourceManager

	shards    []evictShard
	shardMask uint64

	// logBytes sizes each destination's pack buffer (the registered ring
	// buffer itself lives in the transport link).
	logBytes  int
	threshold int

	// replicated enables §4.5 outage semantics: a flush skips unhealthy
	// destinations (entries retained, failure reported to the controller)
	// instead of erroring — the other replicas hold the data, and a
	// repair flip later remaps the retained entries. Unreplicated configs
	// keep wait-for-recovery semantics: the ship is attempted and its
	// error surfaces, because no other copy of the dirty lines exists.
	replicated bool
	// shipReports/remapped/sealedRetains/leaseFenced are fault-tolerance
	// counters (FailureStats, published by PublishTelemetry).
	shipReports   atomic.Uint64
	remapped      atomic.Uint64
	sealedRetains atomic.Uint64
	leaseFenced   atomic.Uint64

	// nodeMu guards membership of nodes/order. order remembers
	// first-touch sequence so flushes walk the nodes deterministically —
	// map iteration order would let the per-node ackDue values pair up
	// differently with the NIC's serialized timeline from run to run.
	// The slice is append-only; a snapshot of its header taken under the
	// read lock stays valid afterwards. Batches are keyed by link key —
	// (node, incarnation) — so a node that crashes and rejoins gets a
	// fresh batch instead of inheriting the dead incarnation's retained
	// entries.
	nodeMu sync.RWMutex
	nodes  map[uint64]*nodeBatch
	order  []*nodeBatch

	// flushMu serializes flush cycles and guards the flush-side stats,
	// breakdown, the stolen-pending scratch, the moves, the result slots
	// and every nodeBatch's merge fields. Lock order: flushMu → shard.mu →
	// nodeMu → rm.mu; EvictPage's append phase releases its shard lock
	// before taking flushMu for a threshold flush, so no cycle exists.
	flushMu sync.Mutex
	// stolen records pending pages removed from the shards by a
	// full-flush harvest; restored on ship failure so the
	// write-before-read check stays conservative (settleStolenLocked).
	stolen []mem.Addr
	// stealing is nonzero while a steal-harvest-ship cycle is in flight:
	// from just before harvestLocked empties the pending sets until
	// the cycle's entries are shipped (or restored). FlushIfPending's
	// lock-free fast path is only sound when this is zero — a stolen
	// page is no longer *pending* but its entries may not have reached
	// remote memory yet, and fetching it in that window reads stale
	// bytes. Set and cleared under flushMu; read without it.
	stealing atomic.Int32
	// pubPending is the backlog settleStolenLocked last added to
	// core.evict.pending_pages. Guarded by flushMu.
	pubPending int64
	fbreak     Breakdown  // RDMAWrite + AckWait slices
	fstats     EvictStats // WireBytes, Flushes, AcksReceived, RemoteEntries

	// moves records placement flips by the extent each one vacated. Every
	// cycle re-applies them (applyMovesLocked) before shipping: an
	// eviction that resolved its placements just before the flip can
	// append entries for the old member just after the remap pass ran,
	// and without the re-apply those dirty lines would sit retained
	// forever. Once a move's source and destination batches have both
	// drained, the installed member has caught up and settleMovesLocked
	// tells it so. Guarded by flushMu.
	moves map[extent]replicaMove

	// sem is the pipelined executor's in-flight bound; nil selects the
	// inline executor.
	sem chan struct{}
	// results holds one slot per destination, in first-touch order, for
	// the cycle in progress.
	results []shipResult

	m evictMetrics
}

// evictInflight bounds how many destinations the pipelined executor ships
// to at once.
const evictInflight = 4

// evictShard is one lock stripe of the append side. Everything a dirty
// eviction touches before the flush — scratch, arena, per-node entry
// buffers, the pending-page set and the append-side counters — lives
// here, so concurrent evictions of pages in different stripes share
// nothing.
type evictShard struct {
	mu sync.Mutex
	// arena backs this shard's entry payloads; each chunk recycles once
	// no buffered or retained entry aliases it (entryList.release).
	arena payloadArena
	// segScratch/plScratch are reused across EvictPage calls so the
	// steady-state eviction path performs no heap allocation.
	segScratch []mem.Segment
	plScratch  []placement
	// batches buffers this shard's entries until a flush harvests them:
	// one per destination, a list short enough (a rack's nodes) to scan.
	batches []*shardBatch
	// pending tracks pages with buffered (unflushed) entries, for the
	// write-before-read ordering check on refetch.
	pending pendingSet
	// stats holds the append-side counters (DirtyPages, SilentEvicted,
	// Segments, LinesShipped, PayloadBytes).
	stats EvictStats
	// bitmapT/copyT are the append-side Breakdown slices.
	bitmapT, copyT simclock.Duration
}

// shardBatch is one shard's buffered entries for one destination node.
type shardBatch struct {
	nb *nodeBatch // the destination's merge batch, fixed at creation
	entryList
	bytes int
}

// nodeBatch is the per-destination merge point: harvested entries from
// every shard accumulate here (in shard-index order, preserving per-page
// append order since a page maps to exactly one shard) until the pack
// and ship. All fields except link and pendingBytes are guarded by
// flushMu.
type nodeBatch struct {
	link nodeLink
	// pendingBytes counts the node's unshipped log bytes — buffered in
	// shards plus harvested-but-retained after a failed ship — and is
	// only decremented when a ship succeeds, so threshold checks keep
	// retrying a failed node exactly like the serial runtime did.
	pendingBytes atomic.Int64
	// entries/entryBytes are the harvested (and, after a failure,
	// retained) log content awaiting ship.
	entryList
	entryBytes int
	// packBuf is the batch's pack scratch (each in-flight destination
	// needs its own packed image). Lazily sized to logBytes.
	packBuf []byte
	// shipVec is the batch's scatter list for shipLog — one segment of
	// packBuf — kept here so ships stay allocation-free.
	shipVec [1][]byte
	// ackDue is when the receiver's ack for the previous flush lands;
	// the next flush of this node's log half must wait for it.
	ackDue simclock.Duration
	// reported marks that this destination's outage has been reported to
	// the controller; reset on the next successful ship so a fresh outage
	// reports again. Guarded by flushMu.
	reported bool
	// overThreshold marks a destination the threshold cycle in progress
	// harvests and ships (a full cycle takes them all). Guarded by flushMu.
	overThreshold bool
}

// shipResult is one destination's outcome in a flush cycle, recorded by
// whichever executor shipped it and folded into stats and state serially
// afterwards (so accounting order never depends on goroutine scheduling).
type shipResult struct {
	chunkShip
	start simclock.Duration // virtual time the ship began
	err   error
	// attempt marks a destination the cycle selected with entries to ship.
	attempt bool
	// unhealthy marks a replicated destination whose link was down, so
	// the ship was withheld.
	unhealthy bool
	// retained marks a destination whose entries stayed in its batch
	// (withheld, or failed and absorbed); it must not count as drained.
	retained bool
}

func newEvictor(rm *resourceManager, cfg Config) *evictor {
	nshards := uint64(1)
	for int(nshards) < cfg.Shards {
		nshards <<= 1
	}
	e := &evictor{
		rm:         rm,
		shards:     make([]evictShard, nshards),
		shardMask:  nshards - 1,
		logBytes:   cfg.LogBytes,
		threshold:  cfg.FlushThreshold,
		replicated: cfg.Replicas > 1,
		nodes:      make(map[uint64]*nodeBatch),
		moves:      make(map[extent]replicaMove),
		m:          newEvictMetrics(cfg.Metrics),
	}
	for i := range e.shards {
		e.shards[i].arena = payloadArena{sh: &e.shards[i], size: max(cfg.LogBytes, mem.PageSize)}
	}
	if rm.links.pipelined() {
		e.sem = make(chan struct{}, evictInflight)
	}
	return e
}

// shardFor returns the append stripe owning the page at base.
func (e *evictor) shardFor(base mem.Addr) *evictShard {
	return &e.shards[base.Page()&e.shardMask]
}

// orderSnapshot returns the current first-touch node sequence.
func (e *evictor) orderSnapshot() []*nodeBatch {
	e.nodeMu.RLock()
	order := e.order
	e.nodeMu.RUnlock()
	return order
}

// EvictPage handles one FMem victim: clean pages are dropped silently;
// dirty pages have exactly their dirty segments copied into the log.
// It returns the virtual time when the eviction-path work completes.
// Callers may invoke it concurrently (the FPGA does, one per FMem
// stripe); victims in different evict stripes append in parallel.
func (e *evictor) EvictPage(now simclock.Duration, v fpga.Victim) (simclock.Duration, error) {
	sh := e.shardFor(v.Base)
	sh.mu.Lock()
	if !v.Dirty.Any() {
		sh.stats.SilentEvicted++
		sh.mu.Unlock()
		return now, nil
	}
	sh.stats.DirtyPages++
	sh.pending.add(v.Base)

	// Bitmap scan: find the dirty segments.
	sh.segScratch = v.Dirty.AppendSegments(sh.segScratch[:0])
	segs := sh.segScratch
	sh.bitmapT += bitmapScanCost
	now += bitmapScanCost

	placements, err := e.rm.placementsInto(v.Base, sh.plScratch, v.Dirty)
	sh.plScratch = placements[:0]
	if err != nil {
		sh.mu.Unlock()
		return now, err
	}
	// Resolve each destination's buffer once per victim, from the links the
	// member table holds now — which is how a placement flip is followed.
	for i := range placements {
		placements[i].batch = e.shardBatchFor(sh, placements[i].link)
	}
	logBytes := 0
	for _, seg := range segs {
		off := seg.First * mem.CacheLineSize
		length := seg.N * mem.CacheLineSize
		data := v.Data[off : off+length]

		// Copy the segment into the registered log once; entries alias it.
		c := segmentCopyFixed + copyCost(length)
		sh.copyT += c
		now += c
		payload, chunk := sh.arena.copyIn(data, len(placements))

		sh.stats.Segments++
		sh.stats.LinesShipped += uint64(seg.N)
		sh.stats.PayloadBytes += uint64(length)
		logBytes += cllog.EntrySize(length)

		for _, pl := range placements {
			pl.batch.add(cllog.Entry{RemoteOff: pl.remoteOff + uint64(off), Data: payload}, chunk)
		}
	}
	for _, pl := range placements {
		pl.batch.bytes += logBytes
		pl.batch.nb.pendingBytes.Add(int64(logBytes))
	}
	sh.mu.Unlock()

	// Flush any destination whose pending log crossed the threshold.
	full := false
	for _, nb := range e.orderSnapshot() {
		if nb.pendingBytes.Load() >= int64(e.threshold) {
			full = true
			break
		}
	}
	if !full {
		return now, nil
	}
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	return e.cycleLocked(now, thresholdCycle)
}

// retainAfterErrLocked is the fold's decision for a ship that failed:
// true keeps the entries in the batch and lets the cycle succeed, false
// surfaces the error. Four cases:
//
//   - The destination's extent is sealed for migration: retain even
//     without replication — the flip is imminent, and the retained
//     entries rebase onto the migration target at the next placement
//     refresh. The members whose lines bounced take evSeal, which fences
//     reads of their (now behind) copy and makes the next fetch refresh;
//     a seal is not an outage, so no failure report.
//   - The ship was rejected by a lease fence (writer-lease takeover):
//     surface the error — the successor owns the region, the node is
//     healthy, and retrying would fail forever against the fence; the
//     zombie writer must find out it was fenced, not buffer silently.
//   - A replicated outage: entries stay retained and the flush
//     continues (the outage is reported once).
//   - An unreplicated failure: surfaces — no other copy of the dirty
//     lines exists.
//
// Caller holds flushMu.
func (e *evictor) retainAfterErrLocked(nb *nodeBatch, err error) bool {
	if errors.Is(err, cluster.ErrSealed) {
		e.rm.shipBounced(nb.link.key(), nb.entries)
		e.sealedRetains.Add(1)
		return true
	}
	if errors.Is(err, cluster.ErrLeaseFenced) {
		e.leaseFenced.Add(1)
		return false
	}
	if !e.replicated {
		return false
	}
	e.reportShipFailureLocked(nb)
	return true
}

// reportShipFailureLocked tells the controller this destination's ships
// are failing, once per outage. Only meaningful with replication: an
// unreplicated outage is §4.5's wait-for-recovery case and must not get
// the node expelled. Caller holds flushMu.
func (e *evictor) reportShipFailureLocked(nb *nodeBatch) {
	if nb.reported {
		return
	}
	nb.reported = true
	e.shipReports.Add(1)
	// Best-effort: a lost report leaves the node to the controller's sweep.
	_, _ = e.rm.ctrl.ReportFailure(nb.link.id())
}

// batchFor finds or creates the global merge batch for a destination
// link. Called with a shard lock held (shard.mu → nodeMu).
func (e *evictor) batchFor(l nodeLink) *nodeBatch {
	k := l.key()
	e.nodeMu.Lock()
	defer e.nodeMu.Unlock()
	nb := e.nodes[k]
	if nb == nil {
		nb = &nodeBatch{link: l, entryList: entryList{entries: cllog.GetEntries()}}
		e.nodes[k] = nb
		e.order = append(e.order, nb)
	}
	return nb
}

// shardBatchFor finds or creates the shard's buffer for a destination
// link; only the shard's first use of a destination reaches batchFor (a
// map under nodeMu). Caller holds sh.mu.
func (e *evictor) shardBatchFor(sh *evictShard, l nodeLink) *shardBatch {
	k := l.key()
	for _, sb := range sh.batches {
		if sb.nb.link.key() == k {
			return sb
		}
	}
	sb := &shardBatch{nb: e.batchFor(l), entryList: entryList{entries: cllog.GetEntries()}}
	sh.batches = append(sh.batches, sb)
	return sb
}

// harvestLocked moves the shards' buffered entries into their merge
// batches, walking shards in index order (per-page entry order is preserved
// because a page always lands in the same shard): the marked destinations'
// on a threshold cycle, all of them when all is set (a full cycle).
// pendingBytes is left untouched: it only shrinks when the ship succeeds,
// so a failed ship keeps the node over threshold and the next eviction
// retries it. A full cycle's pass also, under the same shard lock, moves
// the shard's pending pages into the stolen scratch in the order they
// became pending, so a stolen page's entries are always in a merge batch.
// Pages appended after their shard's turn stay pending — a later refetch of
// such a page still triggers its write-before-read flush even though this
// cycle won't cover those entries. Caller holds flushMu;
// settleStolenLocked ends the steal.
func (e *evictor) harvestLocked(all bool) {
	if all {
		e.stealing.Store(1)
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		if all {
			e.stolen = sh.pending.drainInto(e.stolen)
		}
		for _, sb := range sh.batches {
			if nb := sb.nb; (all || nb.overThreshold) && len(sb.entries) > 0 {
				nb.entries = append(nb.entries, sb.entries...)
				for _, r := range sb.runs {
					nb.runs = addRun(nb.runs, r.c, r.n)
				}
				sb.reset()
				nb.entryBytes += sb.bytes
				sb.bytes = 0
			}
		}
		sh.mu.Unlock()
	}
}

// settleStolenLocked finishes a steal cycle. When the cycle surfaced an
// error or any destination's entries were retained (dead replica, sealed
// extent), the stolen pages go back to pending so a refetch still triggers
// its write-before-read flush — a redundant future flush is harmless, a
// skipped one is stale-read corruption. Otherwise the cycle's entries
// reached remote memory and the scratch is simply dropped. Either way the
// refetch fast path may trust the pending sets again. Caller holds flushMu.
func (e *evictor) settleStolenLocked(restore bool) {
	n := int64(len(e.stolen))
	e.m.pendingPages.Add(n - e.pubPending)
	e.pubPending = n
	if restore {
		for _, a := range e.stolen {
			sh := e.shardFor(a)
			sh.mu.Lock()
			sh.pending.add(a)
			sh.mu.Unlock()
		}
	}
	e.stolen = e.stolen[:0]
	e.stealing.Store(0)
}

// FlushIfPending ships all buffered entries when the page at base has
// unflushed eviction data — the write-before-read ordering a refetch
// requires. It is a no-op otherwise.
func (e *evictor) FlushIfPending(now simclock.Duration, base mem.Addr) (simclock.Duration, error) {
	sh := e.shardFor(base)
	sh.mu.Lock()
	ok := sh.pending.has(base)
	sh.mu.Unlock()
	// Fast path: no buffered entries for this page AND no steal cycle in
	// flight. The second condition is load-bearing: a concurrent full
	// flush empties the pending sets *before* shipping, so "not pending"
	// alone does not mean the page's entries have reached remote memory
	// — fetching in that window would read stale bytes. (The shard lock
	// above orders this page's own EvictPage before the loads, and the
	// stealer writes e.stealing before taking any shard lock, so a steal
	// that cleared this page is visible here.) On the simulated fabric
	// every remote op serializes through one NIC model and the race
	// cannot fire; over real TCP links fetches overlap flushes.
	if !ok && e.stealing.Load() == 0 {
		return now, nil
	}
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	// Re-check under flushMu: the steal cycle we raced with has settled
	// (shipped, or restored the pages to pending).
	sh.mu.Lock()
	ok = sh.pending.has(base)
	sh.mu.Unlock()
	if !ok {
		return now, nil
	}
	return e.cycleLocked(now, orderingCycle)
}

// Flush ships every pending batch and returns when the eviction path is
// drained (all acks received): one cycle, then the ack wait.
func (e *evictor) Flush(now simclock.Duration) (simclock.Duration, error) {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	latest, err := e.cycleLocked(now, drainCycle)
	if err != nil {
		return now, err
	}
	for i, nb := range e.orderSnapshot()[:len(e.results)] {
		res := &e.results[i]
		if res.retained {
			// Dead replica: entries retained, no ack to drain. The other
			// replicas hold the data, so the drain still succeeds (§4.5).
			continue
		}
		done := now
		if res.attempt {
			done = res.done
		}
		if nb.ackDue > done {
			e.fbreak.AckWait += nb.ackDue - done
			done = nb.ackDue
		}
		e.fstats.AcksReceived++
		if done > latest {
			latest = done
		}
	}
	return latest, nil
}

// cycleKind says why a flush cycle runs, which fixes what it covers and
// when its ships start.
type cycleKind int

const (
	// thresholdCycle (EvictPage) ships only the destinations at or past
	// the flush threshold and leaves the pending-page sets alone.
	thresholdCycle cycleKind = iota
	// orderingCycle (FlushIfPending) ships everything buffered, for
	// write-before-read; the ack only gates log reuse, so it is not
	// waited for.
	orderingCycle
	// drainCycle (Flush) ships everything buffered, every ship starting
	// at the same instant; Flush then waits out the acks.
	drainCycle
)

// cycleLocked is the one flush cycle: re-apply the replica moves, harvest
// the selected destinations, ship each, then fold every outcome — in
// first-touch order, after all ships returned — into stats, retained
// entries and member state. It returns the completion time of the slowest
// ship. Failures that are not absorbed into retention are joined, so one
// destination's error does not mask another's; the shipped destinations
// are folded regardless. Caller holds flushMu.
func (e *evictor) cycleLocked(now simclock.Duration, kind cycleKind) (simclock.Duration, error) {
	full := kind != thresholdCycle
	e.applyMovesLocked()
	if !full {
		for _, nb := range e.orderSnapshot() {
			nb.overThreshold = nb.pendingBytes.Load() >= int64(e.threshold)
		}
	}
	e.harvestLocked(full)
	// Read the ship order after the harvest: a destination first used since
	// the cycle began may hold a stolen page's entries and must ship too.
	order := e.orderSnapshot()
	if cap(e.results) < len(order) {
		e.results = make([]shipResult, len(order))
	}
	e.results = e.results[:len(order)]
	for i, nb := range order {
		res := &e.results[i]
		*res = shipResult{}
		res.attempt = (full || nb.overThreshold) && len(nb.entries) > 0
		// The skip-unhealthy decision: with replication, a ship to a link
		// that is down would fail anyway, so it is withheld (§4.5) and
		// the fold retains the entries. Unreplicated configs have no other
		// copy of the dirty lines: the ship is attempted, its error
		// surfaced.
		res.unhealthy = res.attempt && e.replicated && !nb.link.healthy()
	}
	e.shipAllLocked(now, order, kind != drainCycle)

	latest, retained := now, false
	var errs []error
	for i, nb := range order {
		res := &e.results[i]
		switch {
		case !res.attempt:
		case res.unhealthy:
			e.reportShipFailureLocked(nb)
			res.retained = true
		case res.err != nil:
			if res.retained = e.retainAfterErrLocked(nb, res.err); !res.retained {
				errs = append(errs, res.err)
			}
		default:
			e.foldShipLocked(nb, res)
			if res.done > latest {
				latest = res.done
			}
		}
		retained = retained || res.retained
	}
	if full {
		e.settleStolenLocked(retained || len(errs) > 0)
	}
	if len(errs) > 0 {
		return now, errors.Join(errs...)
	}
	if full {
		e.settleMovesLocked()
	}
	return latest, nil
}

// shipAllLocked runs the cycle's ships on the executor the transport
// calls for. Inline (simulated fabric): one after another on the caller's
// goroutine, each starting when the previous one completed if chain is
// set, all at now otherwise. Pipelined (TCP): one goroutine per
// destination behind the in-flight semaphore, all starting at now — the
// measured wall-clock round trips overlap for real. A pipelined cycle with
// one destination to ship has nothing to overlap and ships it on the
// caller's goroutine. Each ship writes only its own pre-sized result slot
// and its own batch's pack buffer. Caller holds flushMu.
func (e *evictor) shipAllLocked(now simclock.Duration, order []*nodeBatch, chain bool) {
	ships := 0
	for i := range order {
		if res := &e.results[i]; res.attempt && !res.unhealthy {
			ships++
		}
	}
	pipelined := e.sem != nil && ships > 1
	var wg sync.WaitGroup
	start := now
	for i, nb := range order {
		res := &e.results[i]
		if !res.attempt || res.unhealthy {
			continue
		}
		if !pipelined {
			e.shipBatch(start, nb, res)
			if chain && res.err == nil {
				start = res.done
			}
			continue
		}
		wg.Add(1)
		go func(nb *nodeBatch, res *shipResult) {
			defer wg.Done()
			e.sem <- struct{}{}
			defer func() { <-e.sem }()
			e.shipBatch(now, nb, res)
		}(nb, res)
	}
	wg.Wait()
}

// shipBatch packs and ships one destination's harvested entries, starting
// at start, and records the outcome in res. On error the entries stay in
// the merge batch (and pendingBytes stays credited), so the next cycle
// retries them ahead of newer log content.
func (e *evictor) shipBatch(start simclock.Duration, nb *nodeBatch, res *shipResult) {
	if nb.packBuf == nil {
		nb.packBuf = make([]byte, e.logBytes)
	}
	e.m.inflight.Inc()
	res.chunkShip, res.err = shipChunks(start, nb.link, nb.entries, nb.packBuf, &nb.shipVec, nb.ackDue)
	e.m.inflight.Dec()
	res.start = start
}

// foldShipLocked accounts one acknowledged ship and empties its batch —
// the only way entries leave a batch other than a move. Caller holds
// flushMu.
func (e *evictor) foldShipLocked(nb *nodeBatch, res *shipResult) {
	e.fbreak.AckWait += res.waited
	e.fbreak.RDMAWrite += res.done - res.start - res.waited
	e.fstats.WireBytes += uint64(res.packed)
	e.fstats.Flushes += uint64(res.flushes)
	e.fstats.RemoteEntries += uint64(res.remote)
	e.m.trace.EmitAt(res.done, "core.evict.flush", "node=%d entries=%d bytes=%d",
		uint64(nb.link.id()), uint64(len(nb.entries)), uint64(res.packed))
	nb.ackDue = res.ackDue
	nb.reported = false
	nb.pendingBytes.Add(-int64(nb.entryBytes))
	nb.entryBytes = 0
	nb.release()
}

// chunkShip is the outcome of shipping one merge batch, possibly split
// across several wire logs.
type chunkShip struct {
	done    simclock.Duration // completion of the last chunk's write
	ackDue  simclock.Duration // ack gate for the buffer's next reuse
	waited  simclock.Duration // total time spent waiting out prior acks
	packed  int               // total bytes on the wire
	remote  int               // entries the receiver reported applying
	flushes int               // wire logs shipped
}

// shipChunks packs entries and ships them to l, splitting the batch
// across several wire logs when it exceeds the pack buffer. A steady-
// state batch always fits — the flush threshold sits far below the log
// budget — but entries retained across an outage are bounded by the
// outage's length, not the budget, and the post-repair catch-up batch
// must chunk rather than wedge: a batch that can never pack would retry
// (and fail) forever, leaving the repaired replica permanently behind.
// Chunks ship in entry order; each waits out the previous chunk's ack
// before reusing the buffer (the ring's double-buffer-half rule). On a
// mid-batch error the caller retains the whole batch; re-shipping the
// already-applied prefix is idempotent (same lines, same order).
func shipChunks(now simclock.Duration, l nodeLink, entries []cllog.Entry, buf []byte, vec *[1][]byte, prevAck simclock.Duration) (chunkShip, error) {
	cs := chunkShip{done: now, ackDue: prevAck}
	for len(entries) > 0 {
		n, size := 0, cllog.TerminatorSize
		for n < len(entries) {
			esz := cllog.EntrySize(len(entries[n].Data))
			if size+esz > len(buf) {
				break
			}
			size += esz
			n++
		}
		if n == 0 {
			return cs, fmt.Errorf("core: eviction entry payload %d exceeds log buffer %d",
				len(entries[0].Data), len(buf))
		}
		if cs.ackDue > now {
			cs.waited += cs.ackDue - now
			now = cs.ackDue
		}
		packed, err := cllog.Pack(entries[:n], buf)
		if err != nil {
			return cs, fmt.Errorf("core: packing eviction log: %w", err)
		}
		vec[0] = buf[:packed]
		done, ackDue, remote, err := l.shipLog(now, vec[:])
		if err != nil {
			return cs, fmt.Errorf("core: shipping eviction log: %w", err)
		}
		cs.packed += packed
		cs.remote += remote
		cs.flushes++
		cs.done, cs.ackDue = done, ackDue
		now = done
		entries = entries[n:]
	}
	return cs, nil
}

// remap rebases retained eviction entries after a placement refresh:
// every buffered entry destined for a replaced (node, incarnation) whose
// pool offset falls inside the vacated extent moves to the installed
// member's batch, rebased onto the new extent. Entries move in buffered
// order and a page's entries all live in one shard, so per-page replay
// order — oldest line version first — is preserved; replay at the new
// node is then an idempotent overwrite like any other ship.
func (e *evictor) remap(moves []replicaMove) {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	for _, mv := range moves {
		e.moves[mv.from] = mv
	}
	e.applyMovesLocked()
}

// applyMovesLocked rebases every buffered or retained entry still keyed
// by a flipped-out member onto its replacement. Runs at the top of each
// flush cycle (cheap no-op when nothing matches), so late entries from
// evictions that raced the flip are caught before the ship. Caller holds
// flushMu.
func (e *evictor) applyMovesLocked() {
	moved := 0
	for _, mv := range e.moves {
		e.nodeMu.RLock()
		src := e.nodes[mv.from.link]
		e.nodeMu.RUnlock()
		dst := e.batchFor(mv.newLink)
		if src == nil || src == dst {
			continue
		}
		// Merge-batch entries (harvested/retained) first — they are older
		// than anything still buffered in the shards.
		moved += moveEntries(&src.entryList, &dst.entryList, mv, func(n int) {
			src.entryBytes -= n
			src.pendingBytes.Add(-int64(n))
			dst.entryBytes += n
			dst.pendingBytes.Add(int64(n))
		})
		// Then each shard's buffered entries, staying within the shard so
		// a page's entries keep to the one shard its harvest walks.
		for i := range e.shards {
			sh := &e.shards[i]
			sh.mu.Lock()
			for _, sb := range sh.batches {
				if sb.nb != src || len(sb.entries) == 0 {
					continue
				}
				dsb := e.shardBatchFor(sh, dst.link)
				moved += moveEntries(&sb.entryList, &dsb.entryList, mv, func(n int) {
					sb.bytes -= n
					src.pendingBytes.Add(-int64(n))
					dsb.bytes += n
					dst.pendingBytes.Add(int64(n))
				})
			}
			sh.mu.Unlock()
		}
	}
	if moved > 0 {
		e.remapped.Add(uint64(moved))
	}
}

// settleMovesLocked delivers evDrained to every installed member whose
// catch-up has shipped: no entries remain keyed by the vacated member's
// link (pendingBytes covers shard-buffered and retained alike) and the
// replacement's merge batch — where the rebased entries went — has
// shipped. Fresh entries buffered for the replacement after the flip
// don't gate readability: they belong to pages still marked pending, and
// the ordinary write-before-read flush covers those. Runs after each full
// cycle; a member already current ignores the event. Caller holds flushMu.
func (e *evictor) settleMovesLocked() {
	for from, mv := range e.moves {
		e.nodeMu.RLock()
		src := e.nodes[from.link]
		dst := e.nodes[mv.newLink.key()]
		e.nodeMu.RUnlock()
		if src != nil && (len(src.entries) > 0 || src.pendingBytes.Load() != 0) {
			continue
		}
		if dst != nil && len(dst.entries) > 0 {
			continue
		}
		e.rm.notify(mv.settles, evDrained)
		// A migration move retires once settled; a repair move stays for
		// the life of the runtime (see replicaMove.retire).
		if mv.retire {
			delete(e.moves, from)
		}
	}
}

// moveEntries filters src in place, rebasing every entry inside the
// move's old-extent window onto the new extent and appending it to dst,
// charges and all. account is called with each moved entry's log bytes.
func moveEntries(src, dst *entryList, mv replicaMove, account func(n int)) int {
	moved, i := 0, 0
	kept, keptRuns := src.entries[:0], src.runs[:0]
	for _, r := range src.runs {
		for end := i + r.n; i < end; i++ {
			en := src.entries[i]
			if en.RemoteOff < mv.from.off || en.RemoteOff >= mv.from.off+mv.size {
				kept = append(kept, en)
				keptRuns = addRun(keptRuns, r.c, 1)
				continue
			}
			account(cllog.EntrySize(len(en.Data)))
			en.RemoteOff = mv.settles.RemoteOff + (en.RemoteOff - mv.from.off)
			dst.add(en, r.c)
			moved++
		}
	}
	clear(src.entries[len(kept):])
	clear(src.runs[len(keptRuns):])
	src.entries, src.runs = kept, keptRuns
	return moved
}

// nodePending is one destination node's unshipped eviction backlog.
type nodePending struct {
	node  int
	bytes uint64
}

// pendingLoads returns each destination node's unshipped log bytes
// (buffered in shards plus harvested-but-retained), aggregated across
// incarnations, appended into a caller-owned scratch. Sync feeds this to
// the controller's load map as the compute-side pressure signal.
func (e *evictor) pendingLoads(dst []nodePending) []nodePending {
	dst = dst[:0]
	for _, nb := range e.orderSnapshot() {
		p := nb.pendingBytes.Load()
		if p <= 0 {
			continue
		}
		id := nb.link.id()
		found := false
		for i := range dst {
			if dst[i].node == id {
				dst[i].bytes += uint64(p)
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, nodePending{node: id, bytes: uint64(p)})
		}
	}
	return dst
}

// release returns pooled resources at runtime shutdown. The evictor must
// not be used afterwards.
func (e *evictor) release() {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.nodeMu.Lock()
	for _, nb := range e.order {
		cllog.PutEntries(nb.entries)
		nb.entries = nil
	}
	e.order = nil
	clear(e.nodes)
	e.nodeMu.Unlock()
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, sb := range sh.batches {
			cllog.PutEntries(sb.entries)
			sb.entries = nil
		}
		sh.batches = nil
		sh.mu.Unlock()
	}
}

// arenaHeld returns the chunk bytes every shard's arena holds, in use
// plus free-listed.
func (e *evictor) arenaHeld() int64 {
	var n int64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += int64(sh.arena.held * sh.arena.size)
		sh.mu.Unlock()
	}
	return n
}

// Breakdown returns the accumulated Fig 11c accounting.
func (e *evictor) Breakdown() Breakdown {
	e.flushMu.Lock()
	out := e.fbreak
	e.flushMu.Unlock()
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		out.Bitmap += sh.bitmapT
		out.Copy += sh.copyT
		sh.mu.Unlock()
	}
	return out
}

// Stats returns eviction counters: the shard-local append-side counts
// summed with the flush-side counts.
func (e *evictor) Stats() EvictStats {
	e.flushMu.Lock()
	out := e.fstats
	e.flushMu.Unlock()
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		out.add(sh.stats)
		sh.mu.Unlock()
	}
	out.PagesEvicted = out.DirtyPages + out.SilentEvicted
	return out
}
