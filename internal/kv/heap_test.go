package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kona/internal/core"
	"kona/internal/fpga"
	"kona/internal/mem"
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

// offPageRuntime hands out MallocFresh regions a cache line past wherever
// the previous one ended: the allocator of a runtime that some other caller
// has left mid-page. The heap uses nothing else of it.
type offPageRuntime struct {
	Runtime
	next mem.Addr
}

func (r *offPageRuntime) MallocFresh(size uint64) (mem.Addr, error) {
	a := r.next
	r.next += mem.Addr(size) + mem.CacheLineSize
	return a, nil
}

// TestHeapPagesHoldOneClass is the layout invariant of valueHeap's doc
// comment, checked over random alloc/release churn across every class, on
// the real runtime and on one whose chunks never start on a page boundary:
// no page holds blocks of two classes, a block of ≤ 4 KB lies inside one
// page, and a larger block starts on a page boundary.
func TestHeapPagesHoldOneClass(t *testing.T) {
	runtimes := map[string]Runtime{
		"kona":     simRuntime(t, 1<<20),
		"off-page": &offPageRuntime{next: 1<<30 + mem.CacheLineSize},
	}
	for name, rt := range runtimes {
		t.Run(name, func(t *testing.T) {
			h := newValueHeap(rt, 0)
			rng := rand.New(rand.NewSource(29))
			owner := map[uint64]int{} // page -> class of every block ever carved in it
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
				size := blockBytes(got)
				if got != classOf(n) || size < uint64(n) {
					t.Fatalf("alloc(%d) = class %d", n, got)
				}
				if inUse[a] {
					t.Fatalf("block %#x handed out twice", a)
				}
				if size <= mem.PageSize && a.Page() != (a+mem.Addr(size)-1).Page() {
					t.Fatalf("%d B block at %#x crosses a page boundary", size, a)
				}
				if size > mem.PageSize && a.PageOffset() != 0 {
					t.Fatalf("%d B block at %#x does not start on a page boundary", size, a)
				}
				for p := a.Page(); p <= (a + mem.Addr(size) - 1).Page(); p++ {
					if c, ok := owner[p]; ok && c != got {
						t.Fatalf("page %#x holds blocks of classes %d and %d", p, c, got)
					}
					owner[p] = got
				}
				inUse[a] = true
				live = append(live, block{a, got})
			}
			if h.chunkCount < nClasses {
				t.Fatalf("%d chunks for %d classes", h.chunkCount, nClasses)
			}
		})
	}
}

// TestMixedSizeGetsFetchOnePage is the `make guards` count guard for the
// heap's layout (DESIGN.md §12), over a loopback TCP rack, never timed:
// keys with kv-write's value mix are loaded and Synced, so the read pass
// starts cold (as in TestFreshLoadFetchesNothing); then every get of a
// record of ≤ 4 KB makes at most one `read` RPC of its own and no
// `read-pages`, and every get of an 8 KB value at most one `read-pages` and
// no `read`. Fetches the next-page prefetcher makes during a get are
// speculative, not the record's, and are subtracted by their counted cause.
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
		if rec > mem.PageSize && (dPages > 1 || dReads != 0) {
			t.Errorf("get of a %d B record (%d B value): %d read, %d read-pages RPCs; want 0 and ≤ 1", rec, sizeOf(i), dReads, dPages)
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
