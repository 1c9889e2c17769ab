package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"kona/internal/cluster"
	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/telemetry"
)

// coreMetrics is the runtime's pre-resolved telemetry handles. With a nil
// registry every handle is nil and every call below is a no-op costing a
// pointer check; trace-detail formatting is additionally gated so the
// disabled path never allocates.
type coreMetrics struct {
	syncs *telemetry.Counter
	// syncFlushed/syncRetained describe the latest Sync: dirty pages it
	// pushed through the eviction path and clean pages it left in FMem.
	// Each Sync moves them by the difference from this runtime's previous
	// Sync (Kona.pubFlushed/pubRetained), so runtimes sharing a registry
	// show the sum of their latest Syncs.
	syncFlushed, syncRetained *telemetry.Gauge
	// counts holds one handle per row of publishedCounts.
	counts [len(publishedCounts)]*telemetry.Counter
	trace  *telemetry.Trace
}

func newCoreMetrics(reg *telemetry.Registry) coreMetrics {
	m := coreMetrics{
		syncs:        reg.Counter("core.syncs"),
		syncFlushed:  reg.Gauge("core.sync.flushed_pages"),
		syncRetained: reg.Gauge("core.sync.retained_pages"),
		trace:        reg.Trace(),
	}
	for i, row := range &publishedCounts {
		m.counts[i] = reg.Counter(row.name)
	}
	return m
}

// counts is one reading of the structs that keep a runtime's counts.
type counts struct {
	fpga  fpga.Stats
	evict EvictStats
	fail  FailureStats
}

// publishedCounts pairs each published core.* counter with the field it
// reads. Each count is kept once, by the struct whose lock guards it; the
// registry only shows it (PublishTelemetry).
var publishedCounts = [...]struct {
	name string
	get  func(counts) uint64 // by value: a pointer would escape
}{
	{"core.fetches", func(c counts) uint64 { return c.fpga.RemoteFetches }},
	{"core.fpga.fetches." + fpga.FetchRead.String(), func(c counts) uint64 { return c.fpga.Fetches[fpga.FetchRead] }},
	{"core.fpga.fetches." + fpga.FetchRFO.String(), func(c counts) uint64 { return c.fpga.Fetches[fpga.FetchRFO] }},
	{"core.fpga.fetches." + fpga.FetchPrefetch.String(), func(c counts) uint64 { return c.fpga.Fetches[fpga.FetchPrefetch] }},
	{"core.fpga.line_fills", func(c counts) uint64 { return c.fpga.LineFills }},
	{"core.fpga.fmem_hits", func(c counts) uint64 { return c.fpga.FMemHits }},
	{"core.fpga.writebacks", func(c counts) uint64 { return c.fpga.Writebacks }},
	{"core.fpga.prefetches", func(c counts) uint64 { return c.fpga.Prefetches }},
	{"core.fpga.bytes_fetched", func(c counts) uint64 { return c.fpga.BytesFetched }},
	{"core.fresh_fills", func(c counts) uint64 { return c.fpga.FreshFills }},
	{"core.evictions", func(c counts) uint64 { return c.evict.PagesEvicted }},
	{"core.dirty_evictions", func(c counts) uint64 { return c.evict.DirtyPages }},
	{"core.evict.silent", func(c counts) uint64 { return c.evict.SilentEvicted }},
	{"core.evict.lines_shipped", func(c counts) uint64 { return c.evict.LinesShipped }},
	{"core.evict.payload_bytes", func(c counts) uint64 { return c.evict.PayloadBytes }},
	{"core.evict.wire_bytes", func(c counts) uint64 { return c.evict.WireBytes }},
	{"core.evict.flushes", func(c counts) uint64 { return c.evict.Flushes }},
	{"core.evict.remote_entries", func(c counts) uint64 { return c.evict.RemoteEntries }},
	{"core.evict.ship_failure_reports", func(c counts) uint64 { return c.fail.ShipFailureReports }},
	{"core.evict.remapped_entries", func(c counts) uint64 { return c.fail.RemappedEntries }},
	{"core.evict.sealed_retains", func(c counts) uint64 { return c.fail.SealedRetains }},
	{"core.evict.lease_fenced", func(c counts) uint64 { return c.fail.LeaseFencedShips }},
}

// Kona is the coherence-based remote memory runtime (§4). Applications
// allocate through Malloc and access memory through Read/Write; underneath,
// pages live on memory nodes, are cached in FMem by the FPGA model on
// demand (no page faults), have their writes tracked per cache line by the
// coherence writeback stream, and are evicted through the cache-line log.
type Kona struct {
	cfg   Config
	rm    *resourceManager
	fpga  *fpga.FPGA
	evict *evictor
	m     coreMetrics

	// errMu guards evictErr: eviction callbacks run concurrently under
	// different FMem shard locks, and Sync reads/clears from application
	// context.
	errMu sync.Mutex
	// evictErr latches the first asynchronous eviction failure; Sync
	// surfaces it.
	evictErr error

	// placementEpoch is the controller's placement epoch as of the last
	// successful refresh; Sync re-checks it and refreshes placements when a
	// repair flip (or membership change) advanced it.
	placementEpoch atomic.Uint64
	// refreshes counts completed placement refreshes (FailureStats).
	refreshes atomic.Uint64

	// loadMu guards loadScratch, the reusable per-Sync scratch for
	// reporting ship-pending backlog to the controller's load map.
	loadMu      sync.Mutex
	loadScratch []nodePending

	// runtimeID is this runtime's lease/fence identity (share.go). The
	// sharing state below is guarded by shareMu; readerCount mirrors
	// len(readerGroups) so the hot Read path can skip the lock entirely
	// when nothing is attached.
	runtimeID    uint64
	shareMu      sync.Mutex
	writerGroups map[uint64]struct{}
	readerGroups map[uint64]*readerShare
	readerCount  atomic.Int64

	// mces counts ReadChecked fetches past MCETimeout (FailureStats).
	mces atomic.Uint64

	// pubMu guards pubCounts/pubArena: what PublishTelemetry last added to
	// the registry, so each publish adds only the growth since.
	pubMu     sync.Mutex
	pubCounts [len(publishedCounts)]uint64
	pubArena  int64
	// pubFlushed/pubRetained are this runtime's latest Sync figures, as
	// last added to core.sync.{flushed,retained}_pages.
	pubFlushed, pubRetained atomic.Int64
}

// noteEvictErr latches the first asynchronous eviction failure.
func (k *Kona) noteEvictErr(err error) {
	if err == nil {
		return
	}
	k.errMu.Lock()
	if k.evictErr == nil {
		k.evictErr = err
	}
	k.errMu.Unlock()
}

// takeEvictErr returns and clears the latched eviction failure.
func (k *Kona) takeEvictErr() error {
	k.errMu.Lock()
	defer k.errMu.Unlock()
	err := k.evictErr
	k.evictErr = nil
	return err
}

// NewKona builds a runtime against an in-process rack controller (the
// simulated RDMA transport). The controller must have registered memory
// nodes.
func NewKona(cfg Config, ctrl *cluster.Controller) *Kona {
	id := nextRuntimeID()
	return newKona(cfg.withDefaults(), id, newSimLinks(ctrl, id), localControl{ctrl})
}

// NewKonaTCP builds a runtime against a remote controller daemon reached
// over TCP (cmd/kona-controller + cmd/kona-memnode). Data moves over real
// sockets; measured wall-clock latencies fold into the virtual clock.
func NewKonaTCP(cfg Config, controllerAddr string) *Kona {
	return NewKonaTCPWith(cfg, controllerAddr, cluster.DefaultTransport())
}

// NewKonaTCPWith is NewKonaTCP with an explicit wire policy (deadlines,
// retry budget, connection-pool size) for the controller and node links.
func NewKonaTCPWith(cfg Config, controllerAddr string, tr cluster.Transport) *Kona {
	id := nextRuntimeID()
	cc := cluster.DialControllerTransport(controllerAddr, tr)
	return newKona(cfg.withDefaults(), id, newTCPLinks(cc, tr, id), cc)
}

// newKona builds runtime id over links that already stamp id on every
// data-path write, for lease fencing.
func newKona(cfg Config, id uint64, l links, c control) *Kona {
	rm := newResourceManager(cfg, l, c)
	k := &Kona{
		cfg: cfg, rm: rm, m: newCoreMetrics(cfg.Metrics),
		runtimeID:    id,
		writerGroups: make(map[uint64]struct{}),
		readerGroups: make(map[uint64]*readerShare),
	}
	k.evict = newEvictor(rm, cfg)
	k.fpga = fpga.New(fpga.Config{
		FMemSize:      cfg.LocalCacheBytes,
		Assoc:         4,
		Shards:        cfg.Shards,
		Prefetch:      cfg.Prefetch,
		PrefetchDepth: cfg.PrefetchDepth,
		FetchBytes:    cfg.FetchBytes,
	}, rm, k.onEvict)
	// A span read saves round trips only when they are real; the simulated
	// fabric keeps the per-page path so virtual time stays
	// byte-reproducible.
	if l.pipelined() {
		k.fpga.EnableSpanReads()
	}
	// Write-before-read ordering: a page refetch must not observe remote
	// memory that is missing buffered eviction-log entries. The hook runs
	// before every remote fetch, which makes it the fetch trace point too.
	k.fpga.SetFetchHook(func(now simclock.Duration, base mem.Addr) simclock.Duration {
		k.m.trace.EmitAt(now, "core.fetch", "page=%#x", uint64(base))
		done, err := k.evict.FlushIfPending(now, base)
		k.noteEvictErr(err)
		// A member is sealed only by a bounced ship, so a runtime that has
		// never seen one skips the table scan on every fetch.
		if k.evict.sealedRetains.Load() != 0 && k.rm.inState(memberSealed) > 0 {
			// A ship bounced off an extent sealed for migration; the
			// retained entries can only drain once the flip is picked up.
			// Refresh placements and re-flush before this fetch reads
			// remote memory — without it, an unreplicated slab could
			// serve a page missing acknowledged writes in the window
			// between the seal and the next Sync.
			if _, rerr := k.RefreshPlacements(); rerr != nil {
				k.noteEvictErr(rerr)
			}
			done, err = k.evict.FlushIfPending(done, base)
			k.noteEvictErr(err)
		}
		return done
	})
	return k
}

// onEvict is the FPGA's eviction callback. Eviction is off the
// application's critical path (§4.5), so its cost is not charged to the
// caller's clock — but it shares the NIC with fetches, so heavy eviction
// still delays fetch traffic through queueing.
func (k *Kona) onEvict(now simclock.Duration, v fpga.Victim) simclock.Duration {
	done, err := k.evict.EvictPage(now, v)
	k.noteEvictErr(err)
	return done - now
}

// Malloc allocates disaggregated memory. Allocation is a control-path
// operation: slabs are pre-provisioned in bulk, so no remote round trip
// happens on the common path.
func (k *Kona) Malloc(size uint64) (mem.Addr, error) { return k.rm.Malloc(size) }

// MallocBlocks is Malloc for memory the caller carves into block-byte
// blocks laid end to end, each written before it is read. A line of a page
// wholly inside the allocation that no write-back has carried (and no
// other runtime may have written, §14) is zero-filled locally, not
// fetched; when a block is larger than half a page, a fill of such a page
// fetches only the lines the read or write reaches (DESIGN.md §16).
func (k *Kona) MallocBlocks(size, block uint64) (mem.Addr, error) {
	return k.rm.MallocBlocks(size, block)
}

// Free releases an allocation.
func (k *Kona) Free(addr mem.Addr) error { return k.rm.Free(addr) }

// Read copies remote memory into buf, fetching pages into FMem as needed,
// and returns the completion time.
func (k *Kona) Read(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	k.checkReaderLease(addr)
	return k.fpga.Read(now, addr, buf)
}

// Write stores buf to remote memory through FMem, tracking dirty lines,
// and returns the completion time.
func (k *Kona) Write(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	if k.readerCount.Load() != 0 {
		// A store into a reader-mode shared region must first win the
		// writer lease (share.go); on conflict the write faults here.
		if err := k.upgradeIfReader(addr); err != nil {
			return now, err
		}
	}
	return k.fpga.Write(now, addr, buf)
}

// Cached reports whether the line holding addr is in FMem now, so a
// write ending part-way through it needs no read-for-ownership. It is a
// hint: the line may leave FMem before the caller writes it.
func (k *Kona) Cached(addr mem.Addr) bool { return k.fpga.Cached(addr) }

// RefreshPlacements re-fetches every placement group from the controller
// and, when a repair flip replaced a member, remaps the evictor's
// retained entries onto the replacement node. It reports whether any
// placement changed. Sync calls it automatically when the controller's
// placement epoch advances; callers driving repair externally can invoke
// it directly.
func (k *Kona) RefreshPlacements() (bool, error) {
	moves, changed, err := k.rm.refreshPlacements()
	// Register the moves even when the refresh failed partway: any group
	// already installed has its new member catching up, and only the remap
	// (plus the per-cycle re-apply it arms) ships the retained entries
	// that make that member readable again.
	k.evict.remap(moves)
	if changed {
		k.refreshes.Add(1)
	}
	return changed, err
}

// Sync is the write-back barrier: every page with a dirty line goes
// through the eviction path and the cache-line log is drained, so when it
// returns without error every write issued before the call is in remote
// memory (on every live replica). It returns the drain completion time.
// Sync is not an invalidation: clean pages stay cached exactly as they
// were, and only the pages it flushed leave FMem (their next read comes
// from remote memory). FMem drops a clean page for capacity or when
// ownership of a shared group changes (share.go), never for durability.
// With replication enabled, entries destined for a dead replica are
// retained rather than drained (§4.5) — a repair flip moves them to the
// replacement node — so Sync succeeds while an outage is in progress;
// unreplicated outages surface as errors.
func (k *Kona) Sync(now simclock.Duration) (simclock.Duration, error) {
	// Report the per-destination ship-pending backlog into the
	// controller's load map before draining it: the controller folds this
	// compute-side pressure signal into load-aware placement and
	// migration decisions (DESIGN.md §13). Best-effort and free of
	// virtual-time cost, so fixed-seed results are unchanged.
	k.loadMu.Lock()
	k.loadScratch = k.evict.pendingLoads(k.loadScratch)
	for _, np := range k.loadScratch {
		_ = k.rm.ctrl.ReportLoad(np.node, cluster.LoadSample{PendingBytes: np.bytes})
	}
	k.loadMu.Unlock()
	// Pick up repair flips before flushing so retained entries land on the
	// repaired replica in this drain, not the next. The epoch check is one
	// control-path lookup; in a healthy steady state the epoch never moves
	// and no refresh happens. A failed refresh leaves the epoch unrecorded,
	// so the next Sync retries it (two racing Syncs may both refresh).
	if ep, eerr := k.rm.ctrl.Epoch(); eerr == nil && k.placementEpoch.Load() != ep {
		if _, rerr := k.RefreshPlacements(); rerr != nil {
			k.noteEvictErr(rerr)
		} else {
			k.placementEpoch.Store(ep)
		}
	}
	flushed, retained := k.fpga.FlushDirty(now)
	done, err := k.evict.Flush(now)
	if err == nil {
		err = k.takeEvictErr()
	}
	if errors.Is(err, cluster.ErrLeaseFenced) {
		k.dropWriterGroups()
	}
	if err == nil {
		// The flush reached remote memory; bump the publish version on
		// every writer-leased shared group so readers invalidate and
		// refetch the new bytes (share.go).
		err = k.publishShared()
	}
	k.m.syncs.Inc()
	k.m.syncFlushed.Add(int64(flushed) - k.pubFlushed.Swap(int64(flushed)))
	k.m.syncRetained.Add(int64(retained) - k.pubRetained.Swap(int64(retained)))
	k.PublishTelemetry()
	return done, err
}

// PublishTelemetry adds to the configured registry what each published
// count (publishedCounts) and the eviction arenas' held bytes grew by since
// this runtime last published, so runtimes sharing a registry show their
// sum and re-publishing adds nothing. Sync and Close publish
// automatically; callers scraping /metrics mid-run can call it directly
// for fresher numbers. No-op without a registry.
func (k *Kona) PublishTelemetry() {
	if k.cfg.Metrics == nil {
		return
	}
	k.pubMu.Lock()
	defer k.pubMu.Unlock()
	c := counts{fpga: k.fpga.Stats(), evict: k.evict.Stats(), fail: k.FailureStats()}
	for i, row := range &publishedCounts {
		v := row.get(c)
		k.m.counts[i].Add(v - k.pubCounts[i])
		k.pubCounts[i] = v
	}
	held := k.evict.arenaHeld()
	k.evict.m.arenaBytes.Add(held - k.pubArena)
	k.pubArena = held
}

// Close drains the runtime (Sync) and returns every slab to the rack.
// The runtime must not be used afterwards.
func (k *Kona) Close(now simclock.Duration) error {
	if _, err := k.Sync(now); err != nil {
		return err
	}
	k.releaseShares()
	k.evict.release()
	return k.rm.releaseAll()
}

// FPGAStats exposes the caching/tracking counters.
func (k *Kona) FPGAStats() fpga.Stats { return k.fpga.Stats() }

// EvictStats exposes the eviction counters.
func (k *Kona) EvictStats() EvictStats { return k.evict.Stats() }

// EvictBreakdown exposes the Fig 11c time accounting.
func (k *Kona) EvictBreakdown() Breakdown { return k.evict.Breakdown() }

// DirtyLines reports the tracked dirty bitmap for the page holding addr.
func (k *Kona) DirtyLines(addr mem.Addr) mem.LineBitmap { return k.fpga.DirtyLines(addr) }
