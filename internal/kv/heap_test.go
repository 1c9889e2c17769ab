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
		{4096, 6}, {4097, 7}, {maxRecordLen, classOf(maxRecordLen)},
	}
	for _, c := range cases {
		if got := classOf(c.n); got != c.want {
			t.Errorf("classOf(%d) = %d, want %d", c.n, got, c.want)
		}
		if int(blockBytes(classOf(c.n))) < c.n {
			t.Errorf("classOf(%d) block %d too small", c.n, blockBytes(classOf(c.n)))
		}
	}
	// The largest record must fit the largest class.
	if blockBytes(nClasses-1) < maxRecordLen {
		t.Fatalf("class table tops out at %d, records reach %d", blockBytes(nClasses-1), maxRecordLen)
	}
}

func TestHeapReuseAndAccounting(t *testing.T) {
	h := newValueHeap(simRuntime(t, 1<<20), 64<<10)
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

// offPageRuntime hands out MallocFresh and MallocObjects regions a cache
// line past wherever the previous one ended: the allocator of a runtime
// that some other caller has left mid-page. The heap uses nothing else of
// it.
type offPageRuntime struct {
	Runtime
	next mem.Addr
}

func (r *offPageRuntime) MallocFresh(size uint64) (mem.Addr, error) {
	a := r.next
	r.next += mem.Addr(size) + mem.CacheLineSize
	return a, nil
}

func (r *offPageRuntime) MallocObjects(size uint64) (mem.Addr, error) { return r.MallocFresh(size) }

// objectPages records the pages a runtime's MallocObjects marks as object
// pages: every page wholly inside one of its allocations (the runtime's
// rule, pinned by core's TestObjectPagesAreWholePagesOfMallocObjects).
type objectPages struct {
	Runtime
	marked map[uint64]bool
}

func (r *objectPages) MallocObjects(size uint64) (mem.Addr, error) {
	a, err := r.Runtime.MallocObjects(size)
	if err == nil {
		for p := a.AlignUp(mem.PageSize); p+mem.PageSize <= a+mem.Addr(size); p += mem.PageSize {
			r.marked[p.Page()] = true
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
			n = int(blockBytes(c-1)) + 1 + rng.Intn(int(blockBytes(c-1)))
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
// no page holds blocks of two classes, a block of ≤ 4 KB lies inside one
// page, and a larger block starts on a page boundary.
func TestHeapPagesHoldOneClass(t *testing.T) {
	for name, rt := range heapRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			owner := map[uint64]int{} // page -> class of every block ever carved in it
			churnHeap(t, newValueHeap(rt, 0), func(a mem.Addr, c int) {
				size := blockBytes(c)
				if size <= mem.PageSize && a.Page() != (a+mem.Addr(size)-1).Page() {
					t.Fatalf("%d B block at %#x crosses a page boundary", size, a)
				}
				if size > mem.PageSize && a.PageOffset() != 0 {
					t.Fatalf("%d B block at %#x does not start on a page boundary", size, a)
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
// layout (DESIGN.md §16), over the same churn: every page a block of at
// least a page covers is an object page, every object page belongs to
// exactly one block for the heap's whole life, and no page holding a block
// of a class below a page is ever one — its neighbours' hits are what pay
// for fetching it whole.
func TestHeapObjectPagesHoldOneBlock(t *testing.T) {
	for name, rt := range heapRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			rec := &objectPages{Runtime: rt, marked: map[uint64]bool{}}
			owner := map[uint64]mem.Addr{} // object page -> the block covering it
			churnHeap(t, newValueHeap(rec, 0), func(a mem.Addr, c int) {
				size := blockBytes(c)
				for p := a.Page(); p <= (a + mem.Addr(size) - 1).Page(); p++ {
					switch {
					case size < mem.PageSize && rec.marked[p]:
						t.Fatalf("page %#x of a %d B block is an object page", p, size)
					case size >= mem.PageSize && !rec.marked[p]:
						t.Fatalf("page %#x of a %d B block is not an object page", p, size)
					}
					if b, ok := owner[p]; ok && b != a {
						t.Fatalf("object page %#x belongs to the blocks at %#x and %#x", p, b, a)
					}
					if rec.marked[p] {
						owner[p] = a
					}
				}
			})
			if len(owner) == 0 {
				t.Fatal("no object page carved: the test checks nothing")
			}
		})
	}
}

// TestMixedSizeGetsFetchOnePage is the `make guards` count guard for the
// heap's layout (DESIGN.md §12), over a loopback TCP rack, never timed:
// keys with kv-write's value mix are loaded and Synced, so the read pass
// starts cold (as in TestFreshLoadFetchesNothing); then every get of a
// record of ≤ 4 KB makes at most one `read` RPC of its own and no
// `read-pages`, and every get of an 8 KB value at most one RPC in all (one
// `read` of its line span: its block's pages are object pages). Fetches the
// next-page prefetcher makes during a get are speculative, not the
// record's, and are subtracted by their counted cause.
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
		rec := recordSize(len(key(i)), sizeOf(i))
		if rec <= mem.PageSize && (dReads > 1 || dPages != 0) {
			t.Errorf("get of a %d B record (%d B value): %d read, %d read-pages RPCs; want ≤ 1 and 0", rec, sizeOf(i), dReads, dPages)
		}
		if rec > mem.PageSize && dReads+dPages > 1 {
			t.Errorf("get of a %d B record (%d B value): %d read, %d read-pages RPCs; want ≤ 1 in all", rec, sizeOf(i), dReads, dPages)
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

func TestRingRoutingStableAndSpread(t *testing.T) {
	r := newRing(8)
	// Stability: the same hash always routes to the same shard.
	for i := 0; i < 100; i++ {
		h := hashKey("stable-key")
		if r.shardOf(h) != r.shardOf(h) {
			t.Fatal("routing not deterministic")
		}
	}
	// Spread: 10k distinct keys should touch every shard, with no shard
	// hoarding more than half the keys (vnodes smooth the circle).
	counts := make([]int, 8)
	for i := 0; i < 10000; i++ {
		counts[r.shardOf(hashKey("user:"+string(rune('a'+i%26))+string(rune(i))))]++
	}
	total := 0
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d got no keys", s)
		}
		if c > 5000 {
			t.Errorf("shard %d hoards %d/10000 keys", s, c)
		}
		total += c
	}
	if total != 10000 {
		t.Fatalf("routed %d/10000", total)
	}
}
