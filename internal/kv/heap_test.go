package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kona/internal/core"
	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

func TestClassOfBoundaries(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{1, 0}, {63, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{2048, 5}, {2049, 6}, {33 * 64, 6}, {33*64 + 1, 7}, {42 * 64, 7},
		{4096, 9}, {67 * 64, 9}, {67*64 + 1, 10}, {132 * 64, 12}, {132*64 + 1, 13},
		{maxRecordLen, nClasses - 1},
	}
	for _, c := range cases {
		if got := classOf(c.n); got != c.want {
			t.Errorf("classOf(%d) = %d, want %d", c.n, got, c.want)
		}
		if int(blockBytes(classOf(c.n))) < c.n {
			t.Errorf("classOf(%d) block %d too small", c.n, blockBytes(classOf(c.n)))
		}
	}
	// Up to half a page the classes are powers of two; above it, 29 classes
	// of whole lines from 33, each the last ×1.25 rounded up to a line.
	for c := 1; c < nClasses; c++ {
		prev, size := blockBytes(c-1)/minBlock, blockBytes(c)/minBlock
		want := 2 * prev
		switch {
		case objectClass(c) && !objectClass(c-1):
			want = 33
		case objectClass(c):
			want = (prev*5 + 3) / 4
		}
		if size != want || blockBytes(c)%minBlock != 0 {
			t.Errorf("class %d is %d B, want %d lines", c, blockBytes(c), want)
		}
	}
	if n := nClasses - classOf(mem.PageSize/2+1); n != 29 {
		t.Errorf("%d classes above half a page, want 29", n)
	}
	// The largest record must fit the largest class, and only just.
	if blockBytes(nClasses-1) < maxRecordLen || blockBytes(nClasses-2) >= maxRecordLen {
		t.Fatalf("class table tops out at %d after %d, records reach %d",
			blockBytes(nClasses-1), blockBytes(nClasses-2), maxRecordLen)
	}
}

func TestHeapReuseAndAccounting(t *testing.T) {
	h := newValueHeap(simRuntime(t, 1<<20), nil)
	a1, c1, err := h.alloc(100) // class 1 (128B)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := h.alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("two live blocks share an address")
	}
	if h.liveBytes != 256 {
		t.Fatalf("liveBytes = %d, want 256", h.liveBytes)
	}
	h.release(a1, c1)
	if h.liveBytes != 128 {
		t.Fatalf("liveBytes after release = %d, want 128", h.liveBytes)
	}
	// The freed block is recycled for the next same-class alloc.
	a3, _, err := h.alloc(90)
	if err != nil {
		t.Fatal(err)
	}
	if a3 != a1 {
		t.Fatalf("freed block not reused: got %#x, want %#x", a3, a1)
	}
	// Different class does not touch that free list.
	if _, _, err := h.alloc(5000); err != nil {
		t.Fatal(err)
	}
	if h.chunkCount == 0 {
		t.Fatal("no chunks carved")
	}
	if _, _, err := h.alloc(maxRecordLen + 1); err == nil {
		t.Fatal("oversized alloc accepted")
	}
}

// offPageRuntime hands out MallocBlocks regions a cache line past wherever
// the previous one ended: the allocator of a runtime that some other caller
// has left mid-page, with nothing cached. The heap uses nothing else of it.
type offPageRuntime struct {
	Runtime
	next mem.Addr
}

func (r *offPageRuntime) MallocBlocks(size, _ uint64) (mem.Addr, error) {
	a := r.next
	r.next += mem.Addr(size) + mem.CacheLineSize
	return a, nil
}

func (r *offPageRuntime) Cached(mem.Addr) bool { return false }

// objectPages records, for every page wholly inside a MallocBlocks
// allocation, the block size the call named: the pages the runtime marks,
// as object pages when the block is larger than half a page (the runtime's
// rule, pinned by core's TestObjectPagesAreWholePagesOfLargeBlocks).
type objectPages struct {
	Runtime
	block map[uint64]uint64 // page -> block size of its chunk
}

func (r *objectPages) MallocBlocks(size, block uint64) (mem.Addr, error) {
	a, err := r.Runtime.MallocBlocks(size, block)
	if err == nil {
		for p := a.AlignUp(mem.PageSize); p+mem.PageSize <= a+mem.Addr(size); p += mem.PageSize {
			r.block[p.Page()] = block
		}
	}
	return a, err
}

// heapRuntimes are the runtimes the layout tests carve on: the real one,
// and one whose chunks never start on a page boundary.
func heapRuntimes(t *testing.T) map[string]Runtime {
	return map[string]Runtime{
		"kona":     simRuntime(t, 1<<20),
		"off-page": &offPageRuntime{next: 1<<30 + mem.CacheLineSize},
	}
}

// churnHeap runs random alloc/release churn across every class on h and
// hands each newly allocated block to carved, after checking that it is
// of the right class and not handed out twice.
func churnHeap(t *testing.T, h *valueHeap, carved func(a mem.Addr, c int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	type block struct {
		a mem.Addr
		c int
	}
	var live []block
	inUse := map[mem.Addr]bool{}
	for i := 0; i < 4000; i++ {
		if len(live) > 64 || (len(live) > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(len(live))
			h.release(live[j].a, live[j].c)
			delete(inUse, live[j].a)
			live = append(live[:j], live[j+1:]...)
			continue
		}
		// A record size anywhere in a uniformly chosen class.
		c := rng.Intn(nClasses)
		n := 1 + rng.Intn(minBlock)
		if c > 0 {
			n = int(blockBytes(c-1)) + 1 + rng.Intn(int(blockBytes(c)-blockBytes(c-1)))
		}
		n = min(n, maxRecordLen)
		a, got, err := h.alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != classOf(n) || blockBytes(got) < uint64(n) {
			t.Fatalf("alloc(%d) = class %d", n, got)
		}
		if inUse[a] {
			t.Fatalf("block %#x handed out twice", a)
		}
		carved(a, got)
		inUse[a] = true
		live = append(live, block{a, got})
	}
	if h.chunkCount < nClasses {
		t.Fatalf("%d chunks for %d classes", h.chunkCount, nClasses)
	}
}

// TestHeapPagesHoldOneClass is the layout invariant of valueHeap's doc
// comment, checked over random alloc/release churn across every class, on
// the real runtime and on one whose chunks never start on a page boundary:
// no page holds blocks of two classes, a block of ≤ 2 KB lies inside one
// page, and a larger block starts on a line boundary.
func TestHeapPagesHoldOneClass(t *testing.T) {
	for name, rt := range heapRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			owner := map[uint64]int{} // page -> class of every block ever carved in it
			churnHeap(t, newValueHeap(rt, nil), func(a mem.Addr, c int) {
				size := blockBytes(c)
				if size <= mem.PageSize/2 && a.Page() != (a+mem.Addr(size)-1).Page() {
					t.Fatalf("%d B block at %#x crosses a page boundary", size, a)
				}
				if size > mem.PageSize/2 && a%minBlock != 0 {
					t.Fatalf("%d B block at %#x does not start on a line boundary", size, a)
				}
				for p := a.Page(); p <= (a + mem.Addr(size) - 1).Page(); p++ {
					if o, ok := owner[p]; ok && o != c {
						t.Fatalf("page %#x holds blocks of classes %d and %d", p, o, c)
					}
					owner[p] = c
				}
			})
		})
	}
}

// TestHeapObjectPagesHoldOneBlock is the object-page half of the heap's
// layout (DESIGN.md §16), over the same churn: every page a block covers
// came from a MallocBlocks call naming that block's class size, so the
// runtime makes every page a block larger than half a page covers an object
// page, and no page holding a block of a class up to half a page — its
// neighbours' hits are what pay for fetching it whole. Object pages shared
// by two blocks must turn up, or the end-to-end layout is not exercised.
func TestHeapObjectPagesHoldOneBlock(t *testing.T) {
	for name, rt := range heapRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			rec := &objectPages{Runtime: rt, block: map[uint64]uint64{}}
			owner := map[uint64]mem.Addr{} // object page -> a block covering it
			shared := 0
			churnHeap(t, newValueHeap(rec, nil), func(a mem.Addr, c int) {
				size := blockBytes(c)
				for p := a.Page(); p <= (a + mem.Addr(size) - 1).Page(); p++ {
					if rec.block[p] != size {
						t.Fatalf("page %#x of a %d B block came from a chunk of %d B blocks", p, size, rec.block[p])
					}
					if !objectClass(c) {
						continue
					}
					if b, ok := owner[p]; ok && b != a {
						shared++
					}
					owner[p] = a
				}
			})
			if len(owner) == 0 || shared == 0 {
				t.Fatalf("%d object pages carved, %d shared: the test checks nothing", len(owner), shared)
			}
		})
	}
}

// TestMixedSizeGetsFetchOnePage is the `make guards` count guard for the
// heap's layout (DESIGN.md §12), over a loopback TCP rack, never timed:
// keys with kv-write's value mix are loaded and Synced, so the read pass
// starts cold (as in TestFreshLoadFetchesNothing); then every get makes at
// most one RPC of its own in all: a `read`, or a `read-pages` gathering the
// written lines of a page whose blocks leave lines unwritten (DESIGN.md
// §16), for a record of ≤ 2 KB; one `read` of its line span for a larger
// one (2 KB and 8 KB values), whose block's pages are object pages. Fetches the next-page
// prefetcher makes during a get are speculative, not the record's, and are
// subtracted by their counted cause.
func TestMixedSizeGetsFetchOnePage(t *testing.T) {
	const keys = 4000
	sizes := DefaultValueSizes()
	var total float64
	for _, sc := range sizes {
		total += sc.Weight
	}
	// Key i's value size, drawn from the mix by a fixed stride through it.
	sizeOf := func(i int) int {
		x := float64(i*37%100) / 100 * total
		for _, sc := range sizes {
			if x < sc.Weight {
				return sc.Bytes
			}
			x -= sc.Weight
		}
		return sizes[len(sizes)-1].Bytes
	}
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, sizeOf(i)/2) }
	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }

	ctrlAddr, served := countedRack(t)
	k := core.NewKonaTCPWith(core.DefaultConfig(16<<20), ctrlAddr, kvTransport())
	s := NewStore(k, Config{Shards: 16})
	for i := 0; i < keys; i++ {
		if _, err := s.Set(0, key(i), value(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Sync(0); err != nil {
		t.Fatal(err)
	}
	var got []byte
	var fetched, multi, prefetched uint64
	for i := 0; i < keys; i++ {
		reads, pages, pf := served("read"), served("read-pages"), k.FPGAStats().Fetches[fpga.FetchPrefetch]
		var ok bool
		var err error
		if got, _, _, ok, err = s.Get(0, key(i), got); err != nil || !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d: ok=%t err=%v, value intact=%t", i, ok, err, bytes.Equal(got, value(i)))
		}
		dPf := k.FPGAStats().Fetches[fpga.FetchPrefetch] - pf
		dReads, dPages := served("read")-reads-dPf, served("read-pages")-pages
		if dReads+dPages > 1 {
			t.Errorf("get of a %d B record (%d B value): %d read, %d read-pages RPCs; want ≤ 1 in all",
				recordSize(len(key(i)), sizeOf(i)), sizeOf(i), dReads, dPages)
		}
		fetched += dReads
		multi += dPages
		prefetched += dPf
	}
	t.Logf("%d gets from a cold FMem: %d read RPCs, %d read-pages RPCs, %d next-page prefetches; %d chunks",
		keys, fetched, multi, prefetched, s.Stats().Chunks)
	if fetched+multi < keys/8 {
		t.Fatalf("read pass made %d fetches: the values did not come from remote memory", fetched+multi)
	}
	if err := k.Close(0); err != nil {
		t.Fatal(err)
	}
}

// TestObjectPageGetsFetchTheirLines is the `make guards` count guard for
// object pages (DESIGN.md §16), over a loopback TCP rack, never timed: N
// records of 2 KB and N of 8 KB values are set and Synced (which leaves
// them cold), then each is got once. The gets fetch exactly the records'
// lines — core.fpga.bytes_fetched grows by the sum of the record lengths,
// each rounded up to a cache line — with one memnode `read` RPC per record
// and no `read-pages`. Before object pages a 2 KB record's get fetched its
// whole 4 KB page and an 8 KB record's its three pages, 12 KB, in one
// `read-pages`.
func TestObjectPageGetsFetchTheirLines(t *testing.T) {
	const n = 300
	sizes := []int{2048, 8192}
	key := func(i int) string { return fmt.Sprintf("obj-%05d", i) }
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, sizes[i%2]/2) }

	ctrlAddr, served := countedRack(t)
	cfg := core.DefaultConfig(16 << 20)
	cfg.Metrics = telemetry.New(0)
	k := core.NewKonaTCPWith(cfg, ctrlAddr, kvTransport())
	s := NewStore(k, Config{Shards: 16})
	for i := 0; i < 2*n; i++ {
		if _, err := s.Set(0, key(i), value(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Sync(0); err != nil {
		t.Fatal(err)
	}
	fetched := cfg.Metrics.Counter("core.fpga.bytes_fetched")
	bytes0, reads0, pages0 := fetched.Value(), served("read"), served("read-pages")
	var want uint64
	var got []byte
	for i := 0; i < 2*n; i++ {
		var ok bool
		var err error
		if got, _, _, ok, err = s.Get(0, key(i), got); err != nil || !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d: ok=%t err=%v, value intact=%t", i, ok, err, bytes.Equal(got, value(i)))
		}
		want += uint64(mem.Addr(recordSize(len(key(i)), sizes[i%2])).AlignUp(mem.CacheLineSize))
	}
	k.PublishTelemetry()
	dBytes, dReads, dPages := fetched.Value()-bytes0, served("read")-reads0, served("read-pages")-pages0
	t.Logf("%d gets of 2 KB and 8 KB records: %d B fetched (records' lines: %d B), %d read RPCs, %d read-pages RPCs",
		2*n, dBytes, want, dReads, dPages)
	if dBytes != want {
		t.Errorf("gets fetched %d B, want exactly the records' lines, %d B", dBytes, want)
	}
	if dReads != 2*n || dPages != 0 {
		t.Errorf("gets made %d read and %d read-pages RPCs, want %d and 0", dReads, dPages, 2*n)
	}
	if err := k.Close(0); err != nil {
		t.Fatal(err)
	}
}

// TestShardRoutingStableAndSpread: shardOf is a pure function of the
// hash, lands in [0, n) for any shard count, and spreads distinct keys
// evenly — every shard within ±25% of the mean.
func TestShardRoutingStableAndSpread(t *testing.T) {
	if shardOf(hashKey("stable-key"), 16) != shardOf(hashKey("stable-key"), 16) {
		t.Fatal("routing not deterministic")
	}
	for _, n := range []int{1, 8, 16, 17} {
		for i := 0; i < 10000; i++ {
			if s := shardOf(hashKey(fmt.Sprintf("user:%d", i)), n); s < 0 || s >= n {
				t.Fatalf("%d shards: key routed to shard %d", n, s)
			}
		}
		for _, h := range []uint64{0, 1, 1 << 63, ^uint64(0)} {
			if s := shardOf(h, n); s < 0 || s >= n {
				t.Fatalf("%d shards: hash %#x routed to shard %d", n, h, s)
			}
		}
	}
	const keys = 10000
	for _, n := range []int{8, 16} {
		counts := make([]int, n)
		for i := 0; i < keys; i++ {
			counts[shardOf(hashKey(fmt.Sprintf("user:%d", i)), n)]++
		}
		mean := keys / n
		for s, c := range counts {
			if c < mean*3/4 || c > mean*5/4 {
				t.Errorf("%d shards: shard %d holds %d keys, mean %d", n, s, c, mean)
			}
		}
	}
}

// cachedLines is a runtime whose Cached answers from a set of cached line
// addresses and records every address it is asked about.
type cachedLines struct {
	Runtime
	lines  map[mem.Addr]bool
	probes []mem.Addr
}

func (r *cachedLines) Cached(a mem.Addr) bool {
	r.probes = append(r.probes, a)
	return r.lines[a.AlignDown(mem.CacheLineSize)]
}

// TestHeapReusesCachedBlockFirst pins alloc's reuse order (valueHeap's doc
// comment): the newest freed block of the class whose record-ending line is
// cached wins, searched among the newest cachedScan only; with none cached
// the order is LIFO; and a record ending on a line boundary, or written out
// to one because its block is an object block, probes nothing.
func TestHeapReusesCachedBlockFirst(t *testing.T) {
	const n = 100 // a class-1 record: 128 B blocks, ending in line 1 of its block
	base := mem.Addr(1 << 30)
	block := func(i int) mem.Addr { return base + mem.Addr(i)*128 }
	endLine := func(i int) mem.Addr { return (block(i) + n - 1).AlignDown(mem.CacheLineSize) }
	setup := func(cached ...int) (*valueHeap, *cachedLines, *telemetry.Counter) {
		rt := &cachedLines{lines: map[mem.Addr]bool{}}
		for _, i := range cached {
			rt.lines[endLine(i)] = true
		}
		reuses := telemetry.New(0).Counter("kv.heap.cached_reuses")
		h := newValueHeap(rt, reuses)
		for i := 0; i < cachedScan+10; i++ {
			h.free[1] = append(h.free[1], block(i))
		}
		return h, rt, reuses
	}
	top := cachedScan + 9
	alloc := func(t *testing.T, h *valueHeap, n int) mem.Addr {
		t.Helper()
		a, c, err := h.alloc(n)
		if err != nil || c != 1 {
			t.Fatalf("alloc(%d) = class %d, err %v", n, c, err)
		}
		return a
	}

	t.Run("newest cached block in the window wins", func(t *testing.T) {
		h, _, reuses := setup(top-4, top-8)
		if a := alloc(t, h, n); a != block(top-4) {
			t.Fatalf("reused %#x, want the newest cached block %#x", a, block(top-4))
		}
		// The block it displaced from the top took its slot; the rest keep
		// their order.
		if got := h.free[1][top-4]; got != block(top) {
			t.Fatalf("slot of the reused block holds %#x, want the old top %#x", got, block(top))
		}
		if a := alloc(t, h, n); a != block(top-8) {
			t.Fatalf("second alloc reused %#x, want the other cached block %#x", a, block(top-8))
		}
		if a := alloc(t, h, n); a != block(top-2) {
			t.Fatalf("third alloc reused %#x, want the newest freed block %#x", a, block(top-2))
		}
		if reuses.Value() != 2 {
			t.Fatalf("kv.heap.cached_reuses = %d, want 2", reuses.Value())
		}
	})
	t.Run("LIFO when nothing is cached", func(t *testing.T) {
		h, rt, reuses := setup()
		for i := top; i > top-3; i-- {
			if a := alloc(t, h, n); a != block(i) {
				t.Fatalf("reused %#x, want the newest freed block %#x", a, block(i))
			}
		}
		if len(rt.probes) != 3*cachedScan || reuses.Value() != 0 {
			t.Fatalf("%d probes and %d cached reuses for 3 allocs, want %d and 0", len(rt.probes), reuses.Value(), 3*cachedScan)
		}
	})
	t.Run("no probe for a record ending on a line boundary", func(t *testing.T) {
		h, rt, _ := setup(top - 1)
		if a := alloc(t, h, 128); a != block(top) || len(rt.probes) != 0 {
			t.Fatalf("128 B record reused %#x after %d probes, want %#x after none", a, len(rt.probes), block(top))
		}
	})
	t.Run("no probe for a record of an object class", func(t *testing.T) {
		const obj = 4000 // a 4 KB block, written out to the end of its last line
		h, rt, _ := setup()
		h.free[classOf(obj)] = []mem.Addr{base, base + mem.PageSize}
		if a, _, err := h.alloc(obj); err != nil || a != base+mem.PageSize || len(rt.probes) != 0 {
			t.Fatalf("%d B record reused %#x (err %v) after %d probes, want %#x after none", obj, a, err, len(rt.probes), base+mem.PageSize)
		}
	})
	t.Run("nothing past cachedScan is probed", func(t *testing.T) {
		h, rt, _ := setup(top - cachedScan)
		if a := alloc(t, h, n); a != block(top) {
			t.Fatalf("reused %#x, want the top %#x: the cached block lies past the window", a, block(top))
		}
		if len(rt.probes) != cachedScan || rt.probes[cachedScan-1] != block(top-cachedScan+1)+n-1 {
			t.Fatalf("probes %v, want the record ends of the newest %d blocks", rt.probes, cachedScan)
		}
	})
	t.Run("a reuse allocates nothing", func(t *testing.T) {
		h, _, reuses := setup()
		h.rt = cachedAll{cached: true}
		if got := testing.AllocsPerRun(100, func() {
			a, c, _ := h.alloc(n)
			h.release(a, c)
		}); got != 0 || reuses.Value() == 0 {
			t.Fatalf("%.1f allocs per reuse, %d cached reuses counted; want 0 and > 0", got, reuses.Value())
		}
	})
}

// cachedAll is a runtime whose Cached gives one answer for every line.
type cachedAll struct {
	Runtime
	cached bool
}

func (r cachedAll) Cached(mem.Addr) bool { return r.cached }

// TestOneSizeChurnKeepsLIFOOrder is the control for the stores the reuse
// order must not move (kv-cold, kv-hot): with one value size, Set allocates
// before it releases, so a class's free list never holds more than one
// block and the block sequence is the same whatever Cached answers. The
// kv.heap.cached_reuses counter counts every reuse when every line is
// cached (all overwrites but the first, which carves) and none when none
// is.
func TestOneSizeChurnKeepsLIFOOrder(t *testing.T) {
	const keys, sets = 200, 2000
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	churn := func(cached bool) ([]mem.Addr, uint64) {
		reg := telemetry.New(0)
		s := NewStore(cachedAll{simRuntime(t, 1<<20), cached}, Config{Shards: 1, Metrics: reg})
		rng := rand.New(rand.NewSource(5))
		value := bytes.Repeat([]byte{0xC0}, 512)
		var seq []mem.Addr
		for i := 0; i < keys+sets; i++ {
			k := key(i)
			if i >= keys {
				k = key(rng.Intn(keys))
			}
			if _, err := s.Set(0, k, value, 0); err != nil {
				t.Fatal(err)
			}
			seq = append(seq, s.shards[0].idx[k].addr)
		}
		return seq, reg.Counter("kv.heap.cached_reuses").Value()
	}
	plain, none := churn(false)
	hinted, all := churn(true)
	for i := range plain {
		if plain[i] != hinted[i] {
			t.Fatalf("set %d landed in %#x with every line cached, %#x with none", i, hinted[i], plain[i])
		}
	}
	if none != 0 || all != sets-1 {
		t.Fatalf("kv.heap.cached_reuses = %d with no line cached and %d with all, want 0 and %d", none, all, sets-1)
	}
}

// TestSetReusesCachedBlock is the `make guards` count guard for the reuse
// order (DESIGN.md §12), over a loopback TCP rack, never timed. One class
// of a one-shard store is churned so that its free list holds blocks on
// several pages, and the Sync that follows writes them back and leaves FMem
// cold. A get then brings in a page that holds a free block below the top
// of the free list, and a set of that class lands in that block: its
// record ends in a cached line, so the set makes no read-for-ownership —
// no `rfo` fetch and no memnode `read` RPC. Taking the top of the free
// list instead, as plain LIFO does, costs one of each.
func TestSetReusesCachedBlock(t *testing.T) {
	const keys = 64
	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	value := bytes.Repeat([]byte{0x3C}, 280) // a 307 B record: 512 B blocks, 8 to a page

	ctrlAddr, served := countedRack(t)
	cfg := core.DefaultConfig(16 << 20)
	cfg.Metrics = telemetry.New(0)
	k := core.NewKonaTCPWith(cfg, ctrlAddr, kvTransport())
	s := NewStore(k, Config{Shards: 1})
	sh := s.shards[0]
	for i := 0; i < keys; i++ {
		if _, err := s.Set(0, key(i), value, 0); err != nil {
			t.Fatal(err)
		}
	}
	// One key deleted from each of five pages: the class's free list holds
	// a block on each, the last deleted on top.
	for i := 0; i < 5; i++ {
		if _, ok, err := s.Delete(0, key(9*i)); err != nil || !ok {
			t.Fatalf("delete %s: ok=%t err=%v", key(9*i), ok, err)
		}
	}
	if _, err := s.Sync(0); err != nil {
		t.Fatal(err)
	}
	free := sh.heap.free[classOf(recordSize(len(key(0)), len(value)))]
	if len(free) != 5 || free[2].Page() == free[4].Page() {
		t.Fatalf("free list %v: want 5 blocks, the third on another page than the top", free)
	}
	cachedPage, topPage := free[2].Page(), free[4].Page()
	// A get of a key on the third free block's page caches that page.
	var neighbour string
	for kk, e := range sh.idx {
		if e.addr.Page() == cachedPage {
			neighbour = kk
		}
	}
	if _, _, _, ok, err := s.Get(0, neighbour, nil); err != nil || !ok {
		t.Fatalf("get %s: ok=%t err=%v", neighbour, ok, err)
	}
	rfo := cfg.Metrics.Counter("core.fpga.fetches.rfo")
	k.PublishTelemetry()
	rfo0, reads0 := rfo.Value(), served("read")
	if _, err := s.Set(0, "new-key", value, 0); err != nil {
		t.Fatal(err)
	}
	k.PublishTelemetry()
	dRFO, dReads := rfo.Value()-rfo0, served("read")-reads0
	landed := sh.idx["new-key"].addr.Page()
	t.Logf("set into a reused block: landed on page %#x (cached page %#x, top of free list on %#x); %d rfo fetches, %d read RPCs",
		landed, cachedPage, topPage, dRFO, dReads)
	if landed != cachedPage {
		t.Errorf("set landed on page %#x, want the cached page %#x", landed, cachedPage)
	}
	if dRFO != 0 || dReads != 0 {
		t.Errorf("set made %d rfo fetches and %d memnode read RPCs, want 0 and 0", dRFO, dReads)
	}
	if got, _, _, ok, err := s.Get(0, "new-key", nil); err != nil || !ok || !bytes.Equal(got, value) {
		t.Fatalf("get new-key: ok=%t err=%v, value intact=%t", ok, err, bytes.Equal(got, value))
	}
	if err := k.Close(0); err != nil {
		t.Fatal(err)
	}
}

// TestObjectSetClaimsItsLastLine is the `make guards` count guard for sets
// into object blocks (DESIGN.md §12, §16), over a loopback TCP rack, never
// timed. Records of 2 KB and 8 KB values are loaded, some are deleted, and
// a Sync writes their pages back and leaves FMem cold. Replacements of the
// same sizes then reuse the freed blocks: each is written out to the end
// of its last line, so it claims that line and makes no `rfo` fetch and no
// memnode `read` RPC (one of each per set when the record's partial last
// line was read for ownership). The control is a 300 B record reusing a
// block of a flushed shared page: its last line is a neighbour's too, and
// the set still reads it, exactly one `rfo`.
func TestObjectSetClaimsItsLastLine(t *testing.T) {
	const n, freed = 40, 10
	sizes := []int{2048, 8192}
	key := func(i int) string { return fmt.Sprintf("obj-%05d", i) }
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, sizes[i%2]/2) }
	small := bytes.Repeat([]byte{0x5A}, 280) // a 309 B record: 512 B blocks, 8 to a page

	ctrlAddr, served := countedRack(t)
	cfg := core.DefaultConfig(16 << 20)
	cfg.Metrics = telemetry.New(0)
	k := core.NewKonaTCPWith(cfg, ctrlAddr, kvTransport())
	s := NewStore(k, Config{Shards: 1})
	sh := s.shards[0]
	for i := 0; i < 2*n; i++ {
		if _, err := s.Set(0, key(i), value(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Set(0, fmt.Sprintf("small-%d", i), small, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*freed; i++ {
		if _, ok, err := s.Delete(0, key(i)); err != nil || !ok {
			t.Fatalf("delete %s: ok=%t err=%v", key(i), ok, err)
		}
	}
	if _, _, err := s.Delete(0, "small-3"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(0); err != nil {
		t.Fatal(err)
	}
	rfo := cfg.Metrics.Counter("core.fpga.fetches.rfo")
	counts := func() (uint64, uint64) {
		k.PublishTelemetry()
		return rfo.Value(), served("read")
	}
	rfo0, reads0 := counts()
	freeBlocks := map[mem.Addr]bool{}
	for _, c := range []int{classOf(recordSize(len(key(0)), sizes[0])), classOf(recordSize(len(key(1)), sizes[1]))} {
		if !objectClass(c) {
			t.Fatalf("class %d (%d B blocks) is not an object class", c, blockBytes(c))
		}
		for _, a := range sh.heap.free[c] {
			freeBlocks[a] = true
		}
	}
	for i := 2 * n; i < 2*n+2*freed; i++ {
		if _, err := s.Set(0, key(i), value(i), 0); err != nil {
			t.Fatal(err)
		}
		if a := sh.idx[key(i)].addr; !freeBlocks[a] {
			t.Fatalf("set %s carved %#x, want a reused block", key(i), a)
		}
	}
	rfo1, reads1 := counts()
	t.Logf("%d sets into reused object blocks: %d rfo fetches, %d read RPCs", 2*freed, rfo1-rfo0, reads1-reads0)
	if rfo1 != rfo0 || reads1 != reads0 {
		t.Errorf("object sets made %d rfo fetches and %d memnode read RPCs, want 0 and 0", rfo1-rfo0, reads1-reads0)
	}
	if _, err := s.Set(0, "small-new", small, 0); err != nil {
		t.Fatal(err)
	}
	rfo2, reads2 := counts()
	t.Logf("a 309 B set into a flushed shared page: %d rfo fetches, %d read RPCs", rfo2-rfo1, reads2-reads1)
	if rfo2-rfo1 != 1 {
		t.Errorf("shared-page set made %d rfo fetches, want exactly 1", rfo2-rfo1)
	}
	for i := 2 * freed; i < 2*n+2*freed; i++ {
		if got, _, _, ok, err := s.Get(0, key(i), nil); err != nil || !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("get %s: ok=%t err=%v, value intact=%t", key(i), ok, err, bytes.Equal(got, value(i)))
		}
	}
	if got, _, _, ok, err := s.Get(0, "small-new", nil); err != nil || !ok || !bytes.Equal(got, small) {
		t.Fatalf("get small-new: ok=%t err=%v, value intact=%t", ok, err, bytes.Equal(got, small))
	}
	if err := k.Close(0); err != nil {
		t.Fatal(err)
	}
}

// TestLargeRecordsPackEndToEnd is the `make guards` footprint guard for the
// classes above half a page (DESIGN.md §12), counting and timing nothing:
// kv-write's 2 KB and 8 KB values are stored, and the block bytes the index
// holds are within 6% of the value bytes — their classes are whole lines laid
// end to end, not power-of-two blocks on page boundaries (which held twice
// the value bytes). Every value reads back intact.
func TestLargeRecordsPackEndToEnd(t *testing.T) {
	const n = 400
	sizes := []int{2048, 8192}
	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, sizes[i%2]/2) }

	k := simRuntime(t, 1<<20)
	s := NewStore(k, Config{Shards: 4})
	var valueBytes uint64
	for i := 0; i < 2*n; i++ {
		if _, err := s.Set(0, key(i), value(i), 0); err != nil {
			t.Fatal(err)
		}
		valueBytes += uint64(sizes[i%2])
	}
	for i := 0; i < 2*n; i++ {
		if got, _, _, ok, err := s.Get(0, key(i), nil); err != nil || !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("get %s: ok=%t err=%v, value intact=%t", key(i), ok, err, bytes.Equal(got, value(i)))
		}
	}
	live := s.Stats().LiveBytes
	ratio := float64(live) / float64(valueBytes)
	t.Logf("%d values of 2 KB and 8 KB: %d block bytes for %d value bytes (%.3f)", 2*n, live, valueBytes, ratio)
	if ratio > 1.06 {
		t.Errorf("block bytes per value byte %.3f, want ≤ 1.06", ratio)
	}
}
