// Package fpga models the cache-coherent FPGA of Kona's reference
// architecture (§4.3-4.4). The FPGA exports VFMem — a fake physical
// address space larger than its attached DRAM — to the CPU over the
// coherent interconnect, and backs it with remote memory:
//
//   - Line fills: every CPU cache miss to VFMem reaches the FPGA's
//     directory. If the page is cached in FMem the FPGA answers at FMem
//     latency; otherwise it fetches the whole page from the owning memory
//     node over RDMA (cache-remote-data primitive).
//   - Dirty tracking: every modified-line writeback the coherence protocol
//     delivers sets one bit in the page's dirty bitmap
//     (track-local-data primitive).
//   - FMem is a 4-way set-associative cache with page-sized blocks
//     (§4.4 "Local translation"); evictions hand the page's data and its
//     dirty bitmap to the runtime's Eviction Handler.
//   - Remote translation is a consult-only map from VFMem addresses to
//     (node, offset) — the FPGA never updates it (§4.4).
//
// Time is virtual: the directory pipeline is modeled as a set of
// simclock.Server banks (one per shard), so concurrent simulated threads
// contend for a bank the way they would for the real FPGA's ports, while
// requests to different banks pipeline freely.
//
// Concurrency: FMem state is lock-striped into power-of-two shards, each
// owning the sets whose index maps to it (DESIGN.md §9). Every per-page
// operation takes exactly one shard lock; cross-shard work (prefetch
// issue, multi-page span reads, FlushDirty) takes shard locks one at a
// time, never two at once, so no lock cycle exists. A shard's epoch
// counter advances on every install/evict, letting the multi-page
// collector detect a frame torn out between its residency scan and its
// install without re-walking the set.
package fpga

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"kona/internal/mem"
	"kona/internal/prefetch"
	"kona/internal/simclock"
)

// Translator resolves VFMem pages to remote memory and fetches from it.
// The runtime's Resource Manager implements it over the slab map and its
// transport — the simulated RDMA fabric or a TCP memory-node connection;
// the FPGA only consults it (§4.4).
type Translator interface {
	// Lookup answers, in one step, everything a fill of the page at base
	// asks the translator: the page's allocation attributes and its route
	// to remote memory. The FPGA calls it once per fill that misses, never
	// on an FMem hit, from every shard concurrently.
	Lookup(base mem.Addr) Page
	// ReadRange fills buf with the remote contents of the looked-up page
	// p, starting at byte offset off within the page, beginning at virtual
	// time now, and returns the completion time. A buf that runs past the
	// page's end reads on into the bytes that follow it at p's route; the
	// FPGA asks that only when the pages it covers have contiguous routes.
	ReadRange(now simclock.Duration, p Page, off uint64, buf []byte) (simclock.Duration, error)
	// ReadGather is ReadRange for several spans of p in one round trip:
	// bufs[i], all of one length, is filled from byte offset offs[i] within
	// the page. offs is the caller's scratch; the translator may rewrite it.
	ReadGather(now simclock.Duration, p Page, offs []uint64, bufs [][]byte) (simclock.Duration, error)
}

// Page is the translator's answer about one page (DESIGN.md §16).
type Page struct {
	Base mem.Addr
	// Unwritten marks the lines remote memory holds nothing of worth
	// reading: their contents are undefined until written, and no
	// write-back has carried them. A fill zeroes the missing ones — a
	// recycled frame holds another page's bytes — and fetches only the
	// missing lines that were written; with every line unwritten it makes
	// no ReadRange and runs no fetch hook. The zero value fetches
	// everything.
	Unwritten mem.LineBitmap
	// Object: every object on the page is larger than half a page, so no
	// read wants a line of the page its object does not cover. A fill
	// fetches only the lines asked for, not the FetchBytes block around
	// them: no neighbour's later hit would pay for the rest.
	Object bool
	Route  Route
}

// Route locates a page's bytes in remote memory; the FPGA hands it back to
// ReadRange, and compares two only to tell whether their bytes are
// contiguous. Via and Gen are the translator's own.
type Route struct {
	Via any    // the endpoint holding the bytes; nil if none was resolved
	Off uint64 // the page's byte offset at Via
	Gen uint64 // the translator's table version the route was read at
}

// contiguous reports whether page q's bytes follow r's by dist bytes at
// the same endpoint, so one read from r reaches them.
func (r Route) contiguous(q Route, dist uint64) bool {
	return r.Via != nil && q.Via == r.Via && q.Off-r.Off == dist
}

// Victim is an FMem page displaced by a fill, handed to the Eviction
// Handler. Data aliases the FPGA's frame; handlers copy what they keep
// before returning — the caller still holds the frame's shard lock, so
// the alias is stable for exactly the duration of the callback.
type Victim struct {
	// Base is the page's VFMem base address.
	Base mem.Addr
	// Data is the 4KB frame content.
	Data []byte
	// Dirty marks the lines written since the page was fetched.
	Dirty mem.LineBitmap
}

// EvictHandler disposes of a victim page and returns the virtual time the
// disposal consumed on the eviction path (zero if deferred/asynchronous).
type EvictHandler func(now simclock.Duration, v Victim) simclock.Duration

// Config sizes the FPGA.
type Config struct {
	// FMemSize is the FPGA-attached DRAM capacity in bytes.
	FMemSize uint64
	// Shards is the number of lock stripes over the FMem sets. Rounded to
	// a power of two and clamped to the set count; 0 means 1 (fully
	// serial, the pre-concurrency behavior).
	Shards int
	// PrefetchDepth sets the prefetcher (§4.4: the hardware prefetcher can
	// reach remote memory under Kona). 0 turns it off; 1 is next-page
	// prefetch on sequential fill patterns; larger values enable Leap-style
	// stride detection with an adaptive window capped at this depth.
	PrefetchDepth int
	// FetchBytes is the remote fetch granularity: how much of a page one
	// miss pulls over (a power of two between CacheLineSize and PageSize;
	// 0 means PageSize — the paper's choice, §6.2(2)). Smaller values
	// trade spatial-locality exploitation for less wasted transfer on
	// random access; Fig 8d quantifies the trade at simulator level and
	// abl-fetchgran at runtime level.
	FetchBytes uint64
}

// DefaultConfig returns the paper's FMem geometry for the given capacity.
func DefaultConfig(fmemSize uint64) Config {
	return Config{FMemSize: fmemSize, PrefetchDepth: 1}
}

// assoc is the FMem set associativity (the paper's 4 ways).
const assoc = 4

// frame is one FMem page slot.
type frame struct {
	valid bool
	base  mem.Addr // VFMem page base
	data  []byte
	dirty mem.LineBitmap
	// filled marks the lines whose remote contents are present; with
	// sub-page fetch granularity a frame fills incrementally.
	filled  mem.LineBitmap
	lastUse uint64
	// readyAt is the virtual time the fill completes; an access that
	// arrives earlier (e.g. hitting a prefetched page still in flight)
	// waits for it.
	readyAt simclock.Duration
	// prefetched marks frames installed speculatively and not yet used,
	// for prefetcher accuracy accounting.
	prefetched bool
	// object records a Lookup's Page.Object for the frame's page, so a hit
	// on the lines it holds asks the translator nothing.
	object bool
}

// Stats counts FPGA activity.
type Stats struct {
	LineFills     uint64
	FMemHits      uint64
	RemoteFetches uint64
	Writebacks    uint64
	Evictions     uint64
	DirtyEvicts   uint64
	Prefetches    uint64
	// BytesFetched is the total remote payload pulled (goodput numerator
	// for fetch-granularity studies).
	BytesFetched uint64
	// FreshFills counts fills that zeroed unwritten lines locally instead
	// of fetching them (see Page.Unwritten): one per fill that zeroed any.
	FreshFills uint64
	// Fetches splits RemoteFetches by cause; Stats sums them into it.
	Fetches [NumFetchCauses]uint64
	// SpanFallbacks counts multi-page reads whose span read was not made
	// or failed (fetchSpan), leaving their pages to one fetch each.
	SpanFallbacks uint64
}

// FetchCause says why a remote fetch was made.
type FetchCause uint8

const (
	// FetchRead is a demand fill: a load found its line missing.
	FetchRead FetchCause = iota
	// FetchRFO is a read-for-ownership: a write covering part of a line
	// needs the line's remote contents first.
	FetchRFO
	// FetchPrefetch is a speculative fill by the next-page or stride
	// prefetcher.
	FetchPrefetch
	// NumFetchCauses is the number of causes.
	NumFetchCauses
)

// String names the cause as telemetry publishes it.
func (c FetchCause) String() string {
	return [NumFetchCauses]string{"read", "rfo", "prefetch"}[c]
}

// add accumulates o into s (shard-stat merge for Stats()).
func (s *Stats) add(o Stats) {
	s.LineFills += o.LineFills
	s.FMemHits += o.FMemHits
	s.Writebacks += o.Writebacks
	s.Evictions += o.Evictions
	s.DirtyEvicts += o.DirtyEvicts
	s.Prefetches += o.Prefetches
	s.BytesFetched += o.BytesFetched
	s.FreshFills += o.FreshFills
	s.SpanFallbacks += o.SpanFallbacks
	for c := range s.Fetches {
		s.Fetches[c] += o.Fetches[c]
	}
}

// FetchHook runs before a remote page fetch. The runtime uses it to
// enforce write-before-read ordering: any buffered eviction-log entries
// covering the page must reach remote memory before the page is re-read,
// or the fetch would observe stale data. It returns the virtual time
// after its work. The hook must synchronize itself; it is invoked
// concurrently from every shard.
type FetchHook func(now simclock.Duration, pageBase mem.Addr) simclock.Duration

// shard is one lock stripe of FMem. It owns every set whose index maps
// to it and all per-access state that set's frames need: the LRU tick,
// the fetch staging buffer and the activity counters, so the hot path
// touches nothing outside its stripe.
type shard struct {
	mu sync.Mutex
	// epoch counts structural changes (install/evict) to the shard's
	// frames. The span read's collector snapshots it during its residency
	// scan and revalidates at install time: an unchanged epoch proves no
	// frame was installed or torn out in between.
	epoch   atomic.Uint64
	tick    uint64
	scratch []byte
	// runs, offs and bufs stage one gather of written lines (readLines).
	runs  []mem.Segment
	offs  []uint64
	bufs  [][]byte
	stats Stats
	// resident counts the shard's valid frames, so Occupancy and
	// FlushDirty's retained count need no walk over the sets.
	resident int
	// directory is this stripe's bank of the directory pipeline. Real
	// coherence directories are banked by address for port bandwidth;
	// banking by set (= by shard) means requests to different stripes
	// never queue against each other in virtual time, while one thread's
	// sequential accesses see identical timing to a single-ported
	// directory (a lone caller re-arrives ≥ one service time later, so
	// the bank is always idle — fixed-seed artifacts are unchanged).
	directory simclock.Server
}

// front is the fill-pattern tracker feeding the prefetcher. It is
// deliberately tiny: one mutex over a few words, taken only when
// PrefetchDepth is set. Lock order: a shard lock may be held when front.mu
// is taken, never the reverse.
type front struct {
	mu           sync.Mutex
	lastFillPage uint64
	// stride is the adaptive stride prefetcher (PrefetchDepth > 1).
	stride *prefetch.Detector
}

// prefetchIntent is a deferred prefetch decision captured while a shard
// lock is held and executed after it is released, so issuing the
// prefetch (which locks the target page's shard) never nests two shard
// locks.
type prefetchIntent struct {
	want bool
	at   simclock.Duration
	page uint64
}

// spanScratch is the pooled staging area of a span read: the pages of a
// multi-page Read that are missing lines it reads, in address order, and
// the buffer their one read lands in. Each concurrent Read owns one for
// the duration of the read, because the bytes are staged first and only
// then merged — installing mid-read can evict an earlier page's frame.
type spanScratch struct {
	pages []spanPage
	buf   []byte
}

// spanPage is one page a multi-page Read found missing lines of.
type spanPage struct {
	page     Page
	epoch    uint64
	resident bool
	missing  mem.LineBitmap
	// read is the bytes the page's own read brought when the span read
	// failed; 0 if that failed too.
	read int
}

// FPGA is the memory agent.
type FPGA struct {
	cfg       Config
	translate Translator
	onEvict   EvictHandler
	onFetch   FetchHook

	// spanPool holds the staging areas of multi-page Reads (prefillSpan).
	spanPool sync.Pool

	sets  [][]frame
	nsets uint64
	// dirtySets holds one bit per set, raised when a frame in it takes its
	// first dirty line and lowered when FlushDirty has emptied the set of
	// dirty frames — both under the set's shard lock, so a dirty frame in a
	// set whose bit is down cannot exist. A bit may be stale (its dirty
	// frame left for capacity or was dropped), which costs FlushDirty one
	// look at a clean set. The words are atomic because one word spans sets
	// of several shards.
	dirtySets []atomic.Uint64

	shards    []shard
	shardMask uint64

	front front
}

// New builds the FPGA model. It panics on invalid geometry (experiment
// setup error).
func New(cfg Config, tr Translator, onEvict EvictHandler) *FPGA {
	const frameBytes = assoc * mem.PageSize
	if cfg.FMemSize == 0 || cfg.FMemSize%frameBytes != 0 {
		panic(fmt.Sprintf("fpga: FMem size %d not a multiple of assoc*page %d", cfg.FMemSize, frameBytes))
	}
	if cfg.FetchBytes == 0 {
		cfg.FetchBytes = mem.PageSize
	}
	if cfg.FetchBytes < mem.CacheLineSize || cfg.FetchBytes > mem.PageSize ||
		cfg.FetchBytes&(cfg.FetchBytes-1) != 0 {
		panic(fmt.Sprintf("fpga: fetch granularity %d invalid", cfg.FetchBytes))
	}
	nsets := cfg.FMemSize / frameBytes
	sets := make([][]frame, nsets)
	for i := range sets {
		sets[i] = make([]frame, assoc)
	}
	if cfg.FetchBytes < mem.PageSize {
		// The sequential prefetcher operates at page granularity; with
		// sub-page fetches the fetch granularity itself is the locality
		// knob.
		cfg.PrefetchDepth = 0
	}
	nshards := shardCount(cfg.Shards, nsets)
	f := &FPGA{
		cfg:       cfg,
		translate: tr,
		onEvict:   onEvict,
		sets:      sets,
		nsets:     nsets,
		dirtySets: make([]atomic.Uint64, (nsets+63)/64),
		shards:    make([]shard, nshards),
		shardMask: nshards - 1,
	}
	f.spanPool.New = func() any { return &spanScratch{} }
	if cfg.PrefetchDepth > 1 {
		f.front.stride = prefetch.New(cfg.PrefetchDepth)
	}
	return f
}

// shardCount resolves the configured stripe count against the geometry:
// a power of two, at least 1, at most the number of sets (a stripe with
// no sets would be dead weight).
func shardCount(want int, nsets uint64) uint64 {
	if want < 1 {
		want = 1
	}
	n := uint64(1)
	for n < uint64(want) {
		n <<= 1
	}
	for n > nsets {
		n >>= 1
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Stats returns a consistent-enough snapshot of the counters: each
// shard's block is read under its lock, so per-shard values are exact
// and the sum is at worst a few in-flight operations stale.
func (f *FPGA) Stats() Stats {
	var out Stats
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		out.add(sh.stats)
		sh.mu.Unlock()
	}
	for _, n := range out.Fetches {
		out.RemoteFetches += n
	}
	return out
}

// setIndex returns the FMem set index for a VFMem page.
func (f *FPGA) setIndex(page uint64) uint64 { return page % f.nsets }

// shardFor returns the lock stripe owning the page's set.
func (f *FPGA) shardFor(page uint64) *shard { return &f.shards[f.setIndex(page)&f.shardMask] }

// lookupLocked finds the frame caching the page, or nil. The caller
// holds the page's shard lock.
func (f *FPGA) lookupLocked(page uint64) *frame {
	base := mem.PageBase(page)
	set := f.sets[f.setIndex(page)]
	for i := range set {
		if set[i].valid && set[i].base == base {
			return &set[i]
		}
	}
	return nil
}

// Resident reports whether the page holding addr is cached in FMem.
func (f *FPGA) Resident(addr mem.Addr) bool {
	page := addr.Page()
	sh := f.shardFor(page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return f.lookupLocked(page) != nil
}

// Cached reports whether the line holding addr is present in FMem: its
// page is resident and the line's contents are filled, so a write ending
// part-way through it needs no read-for-ownership.
func (f *FPGA) Cached(addr mem.Addr) bool {
	page := addr.Page()
	sh := f.shardFor(page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr := f.lookupLocked(page)
	return fr != nil && fr.filled.Get(addr.LineInPage())
}

// LineFill services one CPU cache-line request to VFMem at virtual time
// now and returns the completion time. This is the cache-remote-data
// primitive: no page fault is involved; a miss in FMem triggers a
// page-granularity remote fetch.
func (f *FPGA) LineFill(now simclock.Duration, addr mem.Addr) (simclock.Duration, error) {
	sh := f.shardFor(addr.Page())
	sh.mu.Lock()
	done, _, pf, err := f.lineFillLocked(sh, now, addr, addr.LineInPage())
	sh.mu.Unlock()
	if err != nil {
		return done, err
	}
	f.runPrefetch(pf)
	return done, nil
}

// lineFillLocked is LineFill under the page's shard lock; reach is the
// last line of the page the caller goes on to read (see ensureLinesLocked).
// It returns the page's frame, so Read can copy out of it without a second
// lookup, and the prefetch intent for the caller to execute once the lock
// is dropped.
func (f *FPGA) lineFillLocked(sh *shard, now simclock.Duration, addr mem.Addr, reach int) (simclock.Duration, *frame, prefetchIntent, error) {
	sh.stats.LineFills++
	// The directory bank serializes this stripe's requests.
	now = sh.directory.Serve(now, simclock.FPGADirectory)
	page := addr.Page()
	line := addr.LineInPage()
	if fr := f.lookupLocked(page); fr != nil {
		sh.stats.FMemHits++
		sh.tick++
		fr.lastUse = sh.tick // LRU refresh on hit
		if fr.readyAt > now {
			// In-flight or just-landed prefetch: wait for the fill. This
			// is also the single-flight suppression point — a concurrent
			// miss that lost the shard-lock race arrives here as a hit on
			// the winner's frame instead of issuing its own remote read.
			now = fr.readyAt
		}
		if fr.prefetched {
			fr.prefetched = false
			f.markPrefetchUseful()
		}
		done, err := f.ensureLinesLocked(sh, now, fr, page, line, line, reach, FetchRead)
		if err != nil {
			return now, nil, prefetchIntent{}, err
		}
		return done + simclock.FMemAccess, fr, prefetchIntent{want: f.cfg.PrefetchDepth > 0, at: now, page: page}, nil
	}
	fr := f.installLocked(sh, now, mem.PageBase(page))
	done, err := f.ensureLinesLocked(sh, now, fr, page, line, line, reach, FetchRead)
	if err != nil {
		return now, nil, prefetchIntent{}, err
	}
	fr.readyAt = done
	// Prefetch is issued at the demand fetch's start time, not its
	// completion: the FPGA pipelines the two NIC operations.
	return done + simclock.FMemAccess, fr, prefetchIntent{want: f.cfg.PrefetchDepth > 0, at: now, page: page}, nil
}

// markPrefetchUseful rewards the stride detector for a demanded
// speculative page.
func (f *FPGA) markPrefetchUseful() {
	if f.front.stride == nil {
		return
	}
	f.front.mu.Lock()
	f.front.stride.MarkUseful()
	f.front.mu.Unlock()
}

// runPrefetch executes a deferred prefetch intent: recognize the fill
// pattern under the front lock, then fetch targets under their own shard
// locks. No shard lock is held on entry.
func (f *FPGA) runPrefetch(pf prefetchIntent) {
	if !pf.want {
		return
	}
	if f.front.stride != nil {
		f.prefetchStride(pf.at, pf.page)
		return
	}
	// Classic depth-1 next-page prefetch on sequential fills.
	f.front.mu.Lock()
	seq := pf.page == f.front.lastFillPage+1
	f.front.lastFillPage = pf.page
	f.front.mu.Unlock()
	if !seq {
		return
	}
	f.prefetchOne(pf.at, pf.page+1)
}

// prefetchOne pulls one page speculatively under its shard lock. It skips
// pages already (or concurrently made) resident, pages with no route (none
// there, no replica answering) or no line written — a frame they fill buys
// nothing and evicts a cached one — and object pages and the page after
// one: an object page's next page holds another object's lines, the
// untouched tail of its own, or another allocation's.
func (f *FPGA) prefetchOne(now simclock.Duration, target uint64) {
	sh := f.shardFor(target)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.lookupLocked(target) != nil {
		return
	}
	pg := f.translate.Lookup(mem.PageBase(target))
	if pg.Route.Via == nil || pg.Unwritten.Full() || pg.Object || f.translate.Lookup(mem.PageBase(target-1)).Object {
		return
	}
	fr := f.installLocked(sh, now, mem.PageBase(target))
	if done, err := f.fillLocked(sh, now, fr, pg, 0, mem.LinesPerPage-1, mem.LinesPerPage-1, FetchPrefetch); err == nil {
		fr.readyAt = done
		fr.prefetched = true
		sh.stats.Prefetches++
	}
}

// SetFetchHook installs the pre-fetch ordering hook.
func (f *FPGA) SetFetchHook(h FetchHook) { f.onFetch = h }

// collectPage adds the page to ss if a read of its lines [lo, hi] would
// have to fetch, with the lines it is missing, recording its shard epoch so
// the merge step can detect a concurrent install/evict in that stripe. The
// lines are the fill's (fillLines): an object page's up to the line the
// read reaches, any other page's FetchBytes blocks around them. Residency
// is checked before the Lookup, so a page the read hits asks the translator
// nothing. Only the written lines are collected: the per-page path zeroes
// the unwritten ones, and a page with none written is left out.
func (f *FPGA) collectPage(ss *spanScratch, page uint64, lo, hi int) {
	sh := f.shardFor(page)
	sh.mu.Lock()
	fr := f.lookupLocked(page)
	var filled mem.LineBitmap
	if fr != nil {
		filled = fr.filled
		if f.fillLines(fr.object, lo, hi, hi)&^filled == 0 {
			sh.mu.Unlock()
			return
		}
	}
	epoch := sh.epoch.Load()
	sh.mu.Unlock()
	pg := f.translate.Lookup(mem.PageBase(page))
	if missing := f.fillLines(pg.Object, lo, hi, hi) &^ filled &^ pg.Unwritten; missing != 0 {
		ss.pages = append(ss.pages, spanPage{page: pg, epoch: epoch, resident: fr != nil, missing: missing})
	}
}

// ensureLinesLocked makes lines [lo, hi] of the frame present and returns
// the completion time; the caller names the cause the fetches count under,
// and reach (≥ hi), the last line of the page it goes on to read. Lines
// already present cost nothing, so an FMem hit asks the translator
// nothing; otherwise one Lookup says how the page fills (fillLocked).
// Caller holds sh.mu; the remote read happens under it, which is what makes
// concurrent misses on one page single-flight: the losers block here and
// find the lines filled.
func (f *FPGA) ensureLinesLocked(sh *shard, now simclock.Duration, fr *frame, page uint64, lo, hi, reach int, cause FetchCause) (simclock.Duration, error) {
	if f.fillLines(fr.object, lo, hi, reach)&^fr.filled == 0 {
		return now, nil
	}
	return f.fillLocked(sh, now, fr, f.translate.Lookup(mem.PageBase(page)), lo, hi, reach, cause)
}

// fillLines is the lines a fill for lines [lo, hi] of a page brings in,
// reach (≥ hi) being the last line the caller goes on to read: exactly
// [lo, reach] on an object page, the FetchBytes blocks covering [lo, hi] on
// any other.
func (f *FPGA) fillLines(object bool, lo, hi, reach int) (lines mem.LineBitmap) {
	if object {
		lines.SetRange(lo, reach+1)
		return lines
	}
	lpb := int(f.cfg.FetchBytes) / mem.CacheLineSize
	lines.SetRange(lo/lpb*lpb, (hi/lpb+1)*lpb)
	return lines
}

// fillLocked fetches what lines [lo, hi] of the looked-up page pg are
// missing from the frame. A page with an unwritten line, and an object
// page, fill exactly: the missing unwritten lines are zeroed (one
// FreshFills), and the missing written ones — an object page's in [lo,
// reach], any other page's in the FetchBytes blocks covering [lo, hi] — come
// over in one round trip straight into the frame (readLines), if any line
// of [lo, reach] is among them: a write ending in an unwritten line reads
// nothing for ownership. Any other page fetches its missing FetchBytes
// blocks whole, one ReadRange each.
// Lines already present are never overwritten: they may hold newer local
// writes. Caller holds sh.mu.
func (f *FPGA) fillLocked(sh *shard, now simclock.Duration, fr *frame, pg Page, lo, hi, reach int, cause FetchCause) (simclock.Duration, error) {
	if pg.Object {
		fr.object = true
	}
	missing := f.fillLines(pg.Object, lo, hi, reach) &^ fr.filled
	if zero := missing & pg.Unwritten; zero != 0 {
		for z := uint64(zero); z != 0; z &= z - 1 {
			l := bits.TrailingZeros64(z)
			clear(fr.data[l*mem.CacheLineSize : (l+1)*mem.CacheLineSize])
		}
		fr.filled |= zero
		missing &^= zero
		sh.stats.FreshFills++
	}
	var need mem.LineBitmap
	need.SetRange(lo, reach+1)
	if missing == 0 || pg.Unwritten != 0 && missing&need == 0 {
		// Nothing the caller reads is missing: the block's other written
		// lines wait for a fill that needs them.
		return now, nil
	}
	done := now
	if f.onFetch != nil {
		now = f.onFetch(now, pg.Base)
		done = max(done, now)
	}
	if pg.Object || pg.Unwritten != 0 {
		runDone, err := f.readLines(sh, now, fr, pg, missing)
		if err != nil {
			return now, fmt.Errorf("fpga: remote fetch %v: %w", pg.Base, err)
		}
		sh.stats.Fetches[cause]++
		sh.stats.BytesFetched += uint64(missing.Count() * mem.CacheLineSize)
		fr.filled |= missing
		return max(done, runDone), nil
	}
	lpb := int(f.cfg.FetchBytes) / mem.CacheLineSize
	for missing != 0 {
		// The next FetchBytes block to fill.
		first := bits.TrailingZeros64(uint64(missing)) / lpb * lpb
		var run mem.LineBitmap
		run.SetRange(first, first+lpb)
		have := fr.filled & run
		missing &^= run
		// A block with no line present — every demand miss of a newly
		// installed frame — is read straight into the frame. A partly
		// filled block (RFO boundary lines, sub-page fills) is staged, and
		// only its missing lines are merged in: the present ones may be
		// newer.
		off, size := first*mem.CacheLineSize, lpb*mem.CacheLineSize
		dst, staged := fr.data[off:off+size], have != 0
		if staged {
			if sh.scratch == nil {
				sh.scratch = make([]byte, mem.PageSize)
			}
			dst = sh.scratch[:size]
		}
		runDone, err := f.translate.ReadRange(now, pg, uint64(off), dst)
		if err != nil {
			return now, fmt.Errorf("fpga: remote fetch %v+%d: %w", pg.Base, off, err)
		}
		sh.stats.Fetches[cause]++
		sh.stats.BytesFetched += uint64(size)
		for l := first; staged && l < first+lpb; l++ {
			if !have.Get(l) {
				lineOff := l * mem.CacheLineSize
				copy(fr.data[lineOff:lineOff+mem.CacheLineSize], dst[lineOff-off:])
			}
		}
		fr.filled |= run
		done = max(done, runDone)
	}
	return done, nil
}

// readLines reads the given lines of pg into the same lines of the frame,
// none of them present, in one round trip: one ReadRange when they form
// one run, otherwise one ReadGather with a span per run when the runs are
// of equal length and a span per line when they are not. Caller holds
// sh.mu, which guards the shard's gather scratch.
func (f *FPGA) readLines(sh *shard, now simclock.Duration, fr *frame, pg Page, lines mem.LineBitmap) (simclock.Duration, error) {
	sh.runs = lines.AppendSegments(sh.runs[:0])
	if len(sh.runs) == 1 {
		off, size := sh.runs[0].First*mem.CacheLineSize, sh.runs[0].N*mem.CacheLineSize
		return f.translate.ReadRange(now, pg, uint64(off), fr.data[off:off+size])
	}
	span := sh.runs[0].N
	for _, r := range sh.runs[1:] {
		if r.N != span {
			span = 1
			break
		}
	}
	sh.offs, sh.bufs = sh.offs[:0], sh.bufs[:0]
	for _, r := range sh.runs {
		for l := r.First; l < r.First+r.N; l += span {
			off := l * mem.CacheLineSize
			sh.offs = append(sh.offs, uint64(off))
			sh.bufs = append(sh.bufs, fr.data[off:off+span*mem.CacheLineSize])
		}
	}
	return f.translate.ReadGather(now, pg, sh.offs, sh.bufs)
}

// installLocked places a page frame, evicting the set's LRU victim if
// needed, and advances the shard epoch so optimistic collectors see the
// structural change. Caller holds sh.mu.
func (f *FPGA) installLocked(sh *shard, now simclock.Duration, base mem.Addr) *frame {
	set := f.sets[f.setIndex(base.Page())]
	victim := &set[0]
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim = w
			break
		}
		if w.lastUse < victim.lastUse {
			victim = w
		}
	}
	sh.epoch.Add(1)
	if victim.valid {
		f.evictFrameLocked(sh, now, victim)
	}
	sh.tick++
	sh.resident++
	if victim.data == nil {
		victim.data = make([]byte, mem.PageSize)
	}
	victim.valid = true
	victim.base = base
	victim.dirty = 0
	victim.filled = 0
	victim.lastUse = sh.tick
	victim.readyAt = now
	victim.prefetched = false
	victim.object = false
	return victim
}

// evictFrameLocked hands a victim to the Eviction Handler. The shard
// lock is held across the callback, so the Victim's data alias is stable
// until the handler returns (it copies what it keeps — the ack-gated
// arena discipline) and no reader can observe the frame mid-teardown.
func (f *FPGA) evictFrameLocked(sh *shard, now simclock.Duration, fr *frame) {
	sh.epoch.Add(1)
	if fr.prefetched && f.front.stride != nil {
		f.front.mu.Lock()
		f.front.stride.MarkWasted()
		f.front.mu.Unlock()
	}
	sh.stats.Evictions++
	if fr.dirty.Any() {
		sh.stats.DirtyEvicts++
	}
	if f.onEvict != nil {
		f.onEvict(now, Victim{Base: fr.base, Data: fr.data, Dirty: fr.dirty})
	}
	fr.valid = false
	sh.resident--
}

// observeWritebackLocked records a modified-line writeback from the CPU
// caches: data, a non-empty chunk of one page starting at addr, lands in
// the page's FMem frame and the first line's dirty bit is set. This is the
// track-local-data primitive. A writeback to a non-resident page installs
// its frame first (the CPU held the line longer than FMem held the page).
// Caller holds the page's shard lock; the frame is returned so Write can
// extend the dirty marking to the rest of its chunk without a second
// lookup.
func (f *FPGA) observeWritebackLocked(sh *shard, now simclock.Duration, addr mem.Addr, data []byte) (simclock.Duration, *frame, error) {
	sh.stats.Writebacks++
	now = sh.directory.Serve(now, simclock.FPGADirectory)
	page := addr.Page()
	fr := f.lookupLocked(page)
	if fr == nil {
		fr = f.installLocked(sh, now, mem.PageBase(page))
	} else {
		sh.tick++
		fr.lastUse = sh.tick // LRU refresh on write hit
		if fr.readyAt > now {
			now = fr.readyAt
		}
	}
	off := addr.PageOffset()
	end := off + uint64(len(data))
	if end > mem.PageSize {
		end = mem.PageSize
	}
	firstLine := addr.LineInPage()
	lastLine := int((end - 1) / mem.CacheLineSize)
	// Read-for-ownership: partially overwritten boundary lines need their
	// remote contents first (read-modify-write); fully covered lines are
	// simply claimed.
	var err error
	firstLineStart := uint64(firstLine) * mem.CacheLineSize
	lastLineEnd := uint64(lastLine+1) * mem.CacheLineSize
	if off > firstLineStart || end < firstLineStart+mem.CacheLineSize {
		if now, err = f.ensureLinesLocked(sh, now, fr, page, firstLine, firstLine, firstLine, FetchRFO); err != nil {
			return now, fr, err
		}
	}
	if lastLine != firstLine && end < lastLineEnd {
		if now, err = f.ensureLinesLocked(sh, now, fr, page, lastLine, lastLine, lastLine, FetchRFO); err != nil {
			return now, fr, err
		}
	}
	copy(fr.data[off:end], data)
	fr.filled.SetRange(firstLine, lastLine+1)
	if !fr.dirty.Any() {
		f.setDirtyBit(f.setIndex(page), true)
	}
	fr.dirty.Set(firstLine)
	return now + simclock.FMemAccess, fr, nil
}

// setDirtyBit raises or lowers the set's bit in the dirty-set index.
// Caller holds the set's shard lock.
func (f *FPGA) setDirtyBit(si uint64, up bool) {
	w, bit := &f.dirtySets[si/64], uint64(1)<<(si%64)
	for {
		old := w.Load()
		next := old &^ bit
		if up {
			next = old | bit
		}
		if next == old || w.CompareAndSwap(old, next) {
			return
		}
	}
}

// prefillSpan pre-stages the pages a multi-page Read spans, so the
// per-page loop below runs at FMem-hit cost: the written lines the read is
// missing, on every page, come in with one contiguous read (fetchSpan).
// Best-effort: an error leaves the lines absent and the per-page path
// surfaces the real failure.
func (f *FPGA) prefillSpan(now simclock.Duration, addr mem.Addr, n int) simclock.Duration {
	end := addr + mem.Addr(n-1)
	firstPage, lastPage := addr.Page(), end.Page()
	if lastPage <= firstPage {
		return now
	}
	ss := f.spanPool.Get().(*spanScratch)
	defer f.spanPool.Put(ss)
	ss.pages = ss.pages[:0]
	for p := firstPage; p <= lastPage; p++ {
		lo, hi := 0, mem.LinesPerPage-1
		if p == firstPage {
			lo = addr.LineInPage()
		}
		if p == lastPage {
			hi = end.LineInPage()
		}
		f.collectPage(ss, p, lo, hi)
	}
	return f.fetchSpan(now, ss)
}

// fetchSpan reads the missing lines of the pages in ss.pages with one
// ReadRange, from the first missing line of the first page to the last
// missing line of the last, and merges each page's missing lines into its
// frame. It needs two or more pages (one page's lines are one read on the
// per-page path anyway) with contiguous routes; otherwise every page is left
// for the per-page path, and one SpanFallbacks is counted in the first
// page's stripe, as is a failed read. The write-before-read hook runs for
// every page before the read; the read counts one FetchRead, in the first
// page's stripe, and each page the bytes it brought. When the span read
// fails, the hooks have run, so each page's missing lines are read here on
// their own — one FetchRead each, in the page's stripe — rather than by the
// per-page path, which would run its hook a second time; a page whose own
// read fails is left to it. A page is merged only if
// nothing but this call installed or evicted a frame in its stripe since
// collection and its frame is the one collection saw (or still none); any
// other page is left for the per-page path.
func (f *FPGA) fetchSpan(now simclock.Duration, ss *spanScratch) simclock.Duration {
	pages := ss.pages
	if len(pages) < 2 {
		return now
	}
	first, last := pages[0].page, pages[len(pages)-1].page
	for _, o := range pages[1:] {
		if !first.Route.contiguous(o.page.Route, uint64(o.page.Base-first.Base)) {
			f.spanFallback(first)
			return now
		}
	}
	lo := bits.TrailingZeros64(uint64(pages[0].missing)) * mem.CacheLineSize
	size := int(last.Base-first.Base) + (mem.LinesPerPage-bits.LeadingZeros64(uint64(pages[len(pages)-1].missing)))*mem.CacheLineSize - lo
	if cap(ss.buf) < size {
		ss.buf = make([]byte, size)
	}
	buf := ss.buf[:size]
	if f.onFetch != nil {
		for _, o := range pages {
			now = f.onFetch(now, o.page.Base)
		}
	}
	done, err := f.translate.ReadRange(now, first, uint64(lo), buf)
	split := err != nil
	if split {
		f.spanFallback(first)
		done = now
		for i := range pages {
			// The page's first missing line to its last, into the place
			// in buf the span read would have put them.
			o := &pages[i]
			from := bits.TrailingZeros64(uint64(o.missing)) * mem.CacheLineSize
			to := (mem.LinesPerPage - bits.LeadingZeros64(uint64(o.missing))) * mem.CacheLineSize
			at := int(o.page.Base-first.Base) - lo
			o.read = 0
			if d, err := f.translate.ReadRange(now, o.page, uint64(from), buf[at+from:at+to]); err == nil {
				o.read, done = to-from, max(done, d)
			}
		}
	}
	for i, o := range pages {
		at := int(o.page.Base-first.Base) - lo // page start's offset in buf
		next := size
		if i+1 < len(pages) {
			next = int(pages[i+1].page.Base-first.Base) - lo
		}
		read := next - max(at, 0)
		if split {
			read = o.read
		}
		if read == 0 {
			continue // its own read failed
		}
		page := o.page.Base.Page()
		sh := f.shardFor(page)
		sh.mu.Lock()
		if split || i == 0 {
			sh.stats.Fetches[FetchRead]++
		}
		sh.stats.BytesFetched += uint64(read)
		fr := f.lookupLocked(page)
		if sh.epoch.Load() != o.epoch || (fr != nil) != o.resident {
			sh.mu.Unlock()
			continue
		}
		if fr == nil {
			fr = f.installLocked(sh, now, mem.PageBase(page))
			for j := i + 1; j < len(pages); j++ {
				if f.shardFor(pages[j].page.Base.Page()) == sh && pages[j].epoch == o.epoch {
					pages[j].epoch = sh.epoch.Load()
				}
			}
		}
		take := o.missing &^ fr.filled
		for l := 0; l < mem.LinesPerPage; l++ {
			if take.Get(l) {
				off := l * mem.CacheLineSize
				copy(fr.data[off:off+mem.CacheLineSize], buf[at+off:])
			}
		}
		fr.filled |= take
		fr.object = o.page.Object
		fr.readyAt = max(fr.readyAt, done)
		sh.mu.Unlock()
	}
	return done
}

// spanFallback counts a span read left to the per-page path, in the first
// page's stripe.
func (f *FPGA) spanFallback(first Page) {
	sh := f.shardFor(first.Base.Page())
	sh.mu.Lock()
	sh.stats.SpanFallbacks++
	sh.mu.Unlock()
}

// Read copies bytes from VFMem into buf, fetching pages as needed, and
// returns the completion time. This is the functional data path the
// runtime uses for application loads. Each page's fill-and-copy runs
// under that page's shard lock, so single-page reads are atomic with
// respect to concurrent writers; multi-page reads are atomic per page.
func (f *FPGA) Read(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	if len(buf) > 0 {
		now = f.prefillSpan(now, addr, len(buf))
	}
	off := 0
	for off < len(buf) {
		a := addr + mem.Addr(off)
		page := a.Page()
		sh := f.shardFor(page)
		pageOff := a.PageOffset()
		n := len(buf) - off
		if rem := int(mem.PageSize - pageOff); n > rem {
			n = rem
		}
		lastLine := int((pageOff + uint64(n) - 1) / mem.CacheLineSize)
		sh.mu.Lock()
		done, fr, pf, err := f.lineFillLocked(sh, now, a, lastLine)
		if err != nil {
			sh.mu.Unlock()
			return now, err
		}
		now = done
		// With sub-page fetch granularity the chunk may span blocks the
		// LineFill did not cover.
		if now, err = f.ensureLinesLocked(sh, now, fr, page, a.LineInPage(), lastLine, lastLine, FetchRead); err != nil {
			sh.mu.Unlock()
			return now, err
		}
		copy(buf[off:off+n], fr.data[pageOff:])
		sh.mu.Unlock()
		f.runPrefetch(pf)
		off += n
	}
	return now, nil
}

// Write copies buf into VFMem, fetching pages as needed, setting dirty
// bits for every touched line, and returns the completion time. It models
// the store hitting the CPU cache and the eventual writeback reaching the
// FPGA; for dirty-tracking purposes the two coincide in virtual time.
// Like Read, each page's chunk lands atomically under its shard lock.
func (f *FPGA) Write(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	off := 0
	for off < len(buf) {
		a := addr + mem.Addr(off)
		pageOff := a.PageOffset()
		n := len(buf) - off
		if rem := int(mem.PageSize - pageOff); n > rem {
			n = rem
		}
		sh := f.shardFor(a.Page())
		sh.mu.Lock()
		done, fr, err := f.observeWritebackLocked(sh, now, a, buf[off:off+n])
		if err != nil {
			sh.mu.Unlock()
			return now, err
		}
		now = done
		// Mark every line the chunk covers (observeWriteback marked the
		// first).
		fr.dirty.MarkWrite(pageOff, uint64(n))
		sh.mu.Unlock()
		off += n
	}
	return now, nil
}

// DirtyLines returns the dirty bitmap of the page holding addr (zero if
// not resident).
func (f *FPGA) DirtyLines(addr mem.Addr) mem.LineBitmap {
	page := addr.Page()
	sh := f.shardFor(page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr := f.lookupLocked(page); fr != nil {
		return fr.dirty
	}
	return 0
}

// FlushPage force-evicts the page holding addr (if resident), pushing it
// through the Eviction Handler. Only tests call it, to stage a page that
// has left FMem; the runtime writes back with FlushDirty.
func (f *FPGA) FlushPage(now simclock.Duration, addr mem.Addr) bool {
	page := addr.Page()
	sh := f.shardFor(page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr := f.lookupLocked(page)
	if fr == nil {
		return false
	}
	f.evictFrameLocked(sh, now, fr)
	return true
}

// FlushDirty is the write-back barrier behind Sync: it evicts every
// resident page that has a dirty line, in set-index order (one shard lock
// at a time) so the eviction sequence matches the serial runtime's. Only
// the sets the dirty-set index names are visited, so the cost follows the
// dirty pages, not the FMem size. A set's bit comes down under its shard
// lock, after its dirty frames have gone through the handler: a concurrent
// FlushDirty either still sees the bit and queues on the lock, or finds it
// down because the evictions are done — every page dirty when a call began
// has been evicted when that call returns. Clean pages are not touched at
// all — data, filled bitmap, LRU position and prefetched flag stay as they
// are and their shard's epoch does not move — because remote memory
// already holds their bytes; FMem gives a clean page up only for capacity
// or an explicit invalidation (DropRange). Returns the pages flushed and
// the clean pages left resident.
func (f *FPGA) FlushDirty(now simclock.Duration) (flushed, retained int) {
	for wi := range f.dirtySets {
		for word := f.dirtySets[wi].Load(); word != 0; word &= word - 1 {
			si := uint64(wi)*64 + uint64(bits.TrailingZeros64(word))
			sh := &f.shards[si&f.shardMask]
			sh.mu.Lock()
			set := f.sets[si]
			for i := range set {
				if fr := &set[i]; fr.valid && fr.dirty.Any() {
					f.evictFrameLocked(sh, now, fr)
					flushed++
				}
			}
			f.setDirtyBit(si, false)
			sh.mu.Unlock()
		}
	}
	return flushed, f.Occupancy()
}

// DropRange invalidates every resident page whose base lies in
// [base, base+size) WITHOUT running the Eviction Handler: the cached
// data and dirty bits are discarded, so the next access refetches from
// remote memory. This is the reader-side invalidation shootdown for
// cross-runtime shared regions (DESIGN.md §14) — a reader holds no
// writer lease, so its frames carry no writes worth shipping. Walks one
// shard lock at a time, like FlushDirty. Returns the frames dropped.
func (f *FPGA) DropRange(base mem.Addr, size uint64) int {
	end := base + mem.Addr(size)
	dropped := 0
	for si := uint64(0); si < f.nsets; si++ {
		sh := &f.shards[si&f.shardMask]
		sh.mu.Lock()
		set := f.sets[si]
		for wi := range set {
			fr := &set[wi]
			if fr.valid && fr.base >= base && fr.base < end {
				sh.epoch.Add(1)
				sh.resident--
				fr.valid = false
				fr.dirty = 0
				fr.filled = 0
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Occupancy returns the number of resident pages.
func (f *FPGA) Occupancy() int {
	n := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		n += sh.resident
		sh.mu.Unlock()
	}
	return n
}
