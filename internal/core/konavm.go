package core

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"kona/internal/cluster"
	"kona/internal/mem"
	"kona/internal/prefetch"
	"kona/internal/simclock"
	"kona/internal/vm"
)

// Kona-VM is the paper's virtual-memory baseline (§6.1): the same caching
// and eviction policy as Kona, but built on page faults. Remote pages are
// fetched by a user-space fault handler (userfaultfd-style), mapped
// read-only so the first store takes a write-protect fault (dirty
// tracking), and evicted at 4KB granularity with full-page RDMA writes.

// VM fault-path cost decomposition. The total fetch latency matches the
// measured ~10µs of the paper's Kona-VM/LegoOS class (§6.2): a serialized
// section (VMA/page-table locks), a parallel software section, and the
// 4KB RDMA read.
const (
	vmFaultSerial = 2 * time.Microsecond
	vmFaultLocal  = 4 * time.Microsecond
	// vmWPCost is the ~4µs minor write-protect fault. Unlike major
	// faults, Linux resolves WP faults under per-PTE locks, so they do
	// not contend on the serialized fault path.
	vmWPCost = 4 * time.Microsecond
	// vmEvictAppCost is the synchronous part of evicting one page that
	// stalls the application: checking page locks and other PTE
	// references, unmapping, clearing dirty bits, flushing the TLB, and
	// LRU/page-cache bookkeeping (§2.1 — Infiniswap's eviction exceeds
	// 32µs; the leaner userfaultfd-based Kona-VM path still pays several
	// µs of this "sum of small operations"). The RDMA page write itself
	// proceeds asynchronously.
	vmEvictAppCost = 10 * time.Microsecond
)

// VMStats counts Kona-VM events.
type VMStats struct {
	Fetches      uint64
	WPFaults     uint64
	Evictions    uint64
	DirtyEvicted uint64
	WireBytes    uint64
	Hits         uint64
	// Prefetches counts Leap-style software prefetch fills.
	Prefetches uint64
	// FreshFills counts major faults on fresh pages, resolved with a zero
	// page instead of a fetch (the kernel's zero-fill on demand).
	FreshFills uint64
}

// vmPage is one locally cached page.
type vmPage struct {
	page     uint64
	data     []byte
	dirty    bool
	writable bool
	// prefetched marks pages brought in by the Leap prefetcher and not
	// yet demanded, for accuracy adaptation.
	prefetched bool
	// readyAt is the prefetch fetch's completion time; an earlier demand
	// waits for it.
	readyAt simclock.Duration
	elem    *list.Element
}

// KonaVM is the virtual-memory baseline runtime.
//
// Concurrency: one big lock. That is deliberate fidelity, not a
// shortcut — the VM baseline's defining bottleneck is the kernel's
// serialized fault path (mmap_sem and friends, §2.1), so its Go model
// serializes whole accesses the same way. The sharded Kona data path
// exists precisely to beat this.
type KonaVM struct {
	mu  sync.Mutex
	cfg Config
	rm  *resourceManager
	as  *vm.AddressSpace

	// WriteProtect enables page-granularity dirty tracking (the NoWP
	// variant of Fig 7 disables it).
	WriteProtect bool
	// EvictEnabled enables capacity eviction (the NoEvict variant of
	// Fig 7 disables it: the cache grows unboundedly).
	EvictEnabled bool

	capacityPages int
	cache         map[uint64]*vmPage
	lru           *list.List // front = LRU

	// faultPath serializes the lock-protected part of fault handling
	// (mmap_sem analogue) across simulated threads.
	faultPath simclock.Server

	// leap, when non-nil, is Leap-style software prefetching ([57]): the
	// fault handler predicts strided access and fetches ahead. Prefetched
	// pages still arrive at fetch latency; what they save is the fault
	// (the page is present when the app arrives). Enable with
	// EnableLeapPrefetch.
	leap *prefetch.Detector

	stats VMStats
}

// NewKonaVM builds the baseline runtime against an in-process rack
// controller (simulated RDMA transport).
func NewKonaVM(cfg Config, ctrl *cluster.Controller) *KonaVM {
	cfg = cfg.withDefaults()
	return &KonaVM{
		cfg:           cfg,
		rm:            newResourceManager(cfg, newSimLinks(ctrl, 0), localControl{ctrl}),
		as:            vm.NewAddressSpace(),
		WriteProtect:  true,
		EvictEnabled:  true,
		capacityPages: int(cfg.LocalCacheBytes / mem.PageSize),
		cache:         make(map[uint64]*vmPage),
		lru:           list.New(),
	}
}

// Malloc allocates disaggregated memory (shared Resource Manager).
func (k *KonaVM) Malloc(size uint64) (mem.Addr, error) { return k.rm.Malloc(size) }

// MallocBlocks is Kona.MallocBlocks: a major fault on one of its whole pages
// that was never written back maps a zero page without a fetch. A fault
// moves a whole page, so KonaVM ignores the object pages it marks.
func (k *KonaVM) MallocBlocks(size, block uint64) (mem.Addr, error) {
	return k.rm.MallocBlocks(size, block)
}

// Free releases an allocation.
func (k *KonaVM) Free(addr mem.Addr) error { return k.rm.Free(addr) }

// EnableLeapPrefetch turns on Leap-style software prefetching in the
// fault handler with the given maximum window.
func (k *KonaVM) EnableLeapPrefetch(maxDepth int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.leap = prefetch.New(maxDepth)
}

// Stats returns the event counters.
func (k *KonaVM) Stats() VMStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stats
}

// Read copies remote memory into buf and returns the completion time.
func (k *KonaVM) Read(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	return k.access(now, addr, buf, false)
}

// Write stores buf and returns the completion time.
func (k *KonaVM) Write(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	return k.access(now, addr, buf, true)
}

// access walks the buffer page by page through the fault machinery,
// holding the big lock for the whole call (accesses serialize like they
// would behind the kernel's fault path).
func (k *KonaVM) access(now simclock.Duration, addr mem.Addr, buf []byte, write bool) (simclock.Duration, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	off := 0
	for off < len(buf) {
		a := addr + mem.Addr(off)
		pageOff := a.PageOffset()
		n := len(buf) - off
		if rem := int(mem.PageSize - pageOff); n > rem {
			n = rem
		}
		var err error
		now, err = k.touchPage(now, a, write)
		if err != nil {
			return now, err
		}
		pg := k.cache[a.Page()]
		k.touch(pg)
		if write {
			copy(pg.data[pageOff:], buf[off:off+n])
			// Functional dirtiness is tracked regardless of variant; the
			// WriteProtect flag only controls the fault costs (the NoWP
			// variant of Fig 7 is "incomplete" in the real system).
			pg.dirty = true
		} else {
			copy(buf[off:off+n], pg.data[pageOff:])
		}
		off += n
	}
	return now, nil
}

// touchPage runs the MMU/fault machinery for one access and leaves the
// page cached.
func (k *KonaVM) touchPage(now simclock.Duration, a mem.Addr, write bool) (simclock.Duration, error) {
	switch k.as.Touch(a, write) {
	case vm.NoFault:
		k.stats.Hits++
		if pg := k.cache[a.Page()]; pg != nil && pg.prefetched {
			// A Leap hit: wait for the in-flight fill if needed, reward
			// the predictor, and keep the pipeline running ahead.
			pg.prefetched = false
			if pg.readyAt > now {
				now = pg.readyAt
			}
			k.leap.MarkUseful()
			now = k.leapPrefetch(now, a)
		}
		return now + simclock.DRAMAccess, nil
	case vm.WriteProtectFault:
		// Minor fault: upgrade protection, mark dirty.
		now += vmWPCost
		if err := k.as.ResolveWP(a); err != nil {
			return now, err
		}
		k.stats.WPFaults++
		k.cache[a.Page()].writable = true
		return now + simclock.DRAMAccess, nil
	case vm.MajorFault:
		return k.majorFault(now, a, write)
	}
	return now, fmt.Errorf("core: unreachable fault kind")
}

// majorFault fetches the page containing a from remote memory.
func (k *KonaVM) majorFault(now simclock.Duration, a mem.Addr, write bool) (simclock.Duration, error) {
	// Serialized kernel section, then local software work.
	now = k.faultPath.Serve(now, vmFaultSerial)
	now += vmFaultLocal

	if k.EvictEnabled {
		var err error
		now, err = k.evictIfFull(now)
		if err != nil {
			return now, err
		}
	}

	pg := &vmPage{page: a.Page(), data: make([]byte, mem.PageSize)}
	done := now
	if p := k.rm.Lookup(a.AlignDown(mem.PageSize)); p.Unwritten.Full() {
		// Nothing remote worth reading: the new zero page is the fill.
		k.stats.FreshFills++
	} else {
		// The same translator Kona's FPGA reads through: primary first,
		// failing over to a live replica.
		var err error
		if done, err = k.rm.ReadRange(now, p, 0, pg.data); err != nil {
			return now, fmt.Errorf("core: vm fetch: %w", err)
		}
		k.stats.Fetches++
	}

	// Install: present, and read-only iff WP tracking is on.
	writable := !k.WriteProtect
	k.as.ResolveMajor(a, writable)
	pg.writable = writable
	pg.elem = k.lru.PushBack(pg)
	k.cache[pg.page] = pg

	if k.leap != nil {
		done = k.leapPrefetch(done, a)
	}

	if write && k.WriteProtect {
		// The re-executed store immediately takes the write-protect fault
		// — the second fault of the paper's §6.1 analysis.
		if f := k.as.Touch(a, true); f != vm.WriteProtectFault {
			return done, fmt.Errorf("core: expected WP fault on re-executed store, got %v", f)
		}
		done += vmWPCost
		if err := k.as.ResolveWP(a); err != nil {
			return done, err
		}
		k.stats.WPFaults++
		pg.writable = true
	}
	return done + simclock.DRAMAccess, nil
}

// leapPrefetch fetches predicted pages into the cache from the fault
// handler. Unlike Kona's FPGA prefetcher the work happens in software on
// the faulting core, so a slice of the fetch cost lands on the
// application; the payoff is the avoided 6µs fault path on the hit.
func (k *KonaVM) leapPrefetch(now simclock.Duration, a mem.Addr) simclock.Duration {
	const leapIssueCost = 500 * time.Nanosecond // predict + map + post
	for _, page := range k.leap.Observe(a.Page()) {
		base := mem.PageBase(page)
		if _, cached := k.cache[page]; cached {
			continue // present
		}
		p := k.rm.Lookup(base)
		if p.Unwritten.Full() {
			continue // nothing remote to bring in
		}
		if _, mapped := k.rm.groupFor(base); !mapped {
			continue // outside the mapped region: skip quietly
		}
		if k.EvictEnabled {
			if n, err := k.evictIfFull(now); err == nil {
				now = n
			}
		}
		pg := &vmPage{page: page, data: make([]byte, mem.PageSize)}
		done, err := k.rm.ReadRange(now, p, 0, pg.data)
		if err != nil {
			continue
		}
		pg.readyAt = done
		now += leapIssueCost
		k.as.ResolveMajor(base, !k.WriteProtect)
		pg.writable = !k.WriteProtect
		pg.prefetched = true
		pg.elem = k.lru.PushBack(pg)
		k.cache[page] = pg
		k.stats.Prefetches++
	}
	return now
}

// evictIfFull evicts the LRU page when the cache is at capacity.
func (k *KonaVM) evictIfFull(now simclock.Duration) (simclock.Duration, error) {
	if len(k.cache) < k.capacityPages {
		return now, nil
	}
	front := k.lru.Front()
	if front == nil {
		return now, nil
	}
	pg := front.Value.(*vmPage)
	k.lru.Remove(front)
	delete(k.cache, pg.page)
	base := mem.PageBase(pg.page)

	// Unmap: protection change + TLB shootdown stall the application.
	k.as.Unmap(mem.Range{Start: base, Len: mem.PageSize})
	now += vmEvictAppCost
	k.stats.Evictions++

	if !pg.dirty {
		return now, nil // silent eviction (§2, step 9)
	}
	k.stats.DirtyEvicted++
	// Copy the whole page to the registered buffer, then write all 4KB —
	// page-granularity amplification. The write is asynchronous; only the
	// copy stalls the app.
	now += pageCopyFixed + copyCost(mem.PageSize)
	if _, err := k.writeBack(now, pg); err != nil {
		return now, fmt.Errorf("core: vm eviction write: %w", err)
	}
	return now, nil
}

// writeBack writes one whole page to every replica of its group, one
// write after another, and returns when the last lands. A dead replica is
// skipped while another one carries the page; with none written the page
// is unavailable.
func (k *KonaVM) writeBack(now simclock.Duration, pg *vmPage) (simclock.Duration, error) {
	pls, err := k.rm.placementsInto(mem.PageBase(pg.page), nil, ^mem.LineBitmap(0))
	if err != nil {
		return now, err
	}
	wrote := false
	for _, pl := range pls {
		if len(pls) > 1 && !pl.link.healthy() {
			continue // dead replica; the live copies carry the page
		}
		if now, err = pl.link.writePage(now, pl.remoteOff, pg.data); err != nil {
			return now, err
		}
		wrote = true
		k.stats.WireBytes += mem.PageSize
	}
	if !wrote {
		return now, ErrRemoteUnavailable
	}
	return now, nil
}

// touch promotes a page in the LRU on hit. Called from access's cache-hit
// path via touchPage's bookkeeping.
func (k *KonaVM) touch(pg *vmPage) {
	k.lru.MoveToBack(pg.elem)
}

// Sync writes every dirty cached page back to remote memory.
func (k *KonaVM) Sync(now simclock.Duration) (simclock.Duration, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, pg := range k.cache {
		if !pg.dirty {
			continue
		}
		now += pageCopyFixed + copyCost(mem.PageSize)
		var err error
		if now, err = k.writeBack(now, pg); err != nil {
			return now, fmt.Errorf("core: vm sync write: %w", err)
		}
		pg.dirty = false
		// Re-arm tracking for the next epoch.
		if k.WriteProtect {
			k.as.WriteProtect(mem.Range{Start: mem.PageBase(pg.page), Len: mem.PageSize})
			pg.writable = false
		}
	}
	return now, nil
}

// Close drains the runtime (Sync) and returns every slab to the rack.
func (k *KonaVM) Close(now simclock.Duration) error {
	if _, err := k.Sync(now); err != nil {
		return err
	}
	return k.rm.releaseAll()
}

// Cached reports whether the page holding addr is in the local page
// cache now: a write to it faults nothing in. Like Kona.Cached, a hint.
func (k *KonaVM) Cached(addr mem.Addr) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.cache[addr.Page()] != nil
}

// CachedPages returns the current cache occupancy.
func (k *KonaVM) CachedPages() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.cache)
}
