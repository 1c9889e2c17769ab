package core

import (
	"bytes"
	"sync"
	"testing"

	"kona/internal/mem"
	"kona/internal/telemetry"
)

// Fresh allocations (DESIGN.md §16): a page of a MallocBlocks allocation
// that has never been written back is filled with zeros locally; the first
// dirty write-back of the page, or sharing its group, ends that.

// fetchCount is the number of remote fetches the runtime has issued.
func fetchCount(k *Kona) uint64 { return k.FPGAStats().RemoteFetches }

func TestFreshWriteReachesRemoteMemoryAndComesBack(t *testing.T) {
	const pages = 8
	reg := telemetry.New(0)
	cfg := smallConfig()
	cfg.Metrics = reg
	k := NewKona(cfg, newCluster(1))
	base, err := k.MallocBlocks(pages*mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	// Records that start and end inside lines, like a kv value heap's: every
	// first touch is a read-for-ownership of a boundary line.
	mirror := make([]byte, pages*mem.PageSize)
	var now simDurT
	for p := 0; p < pages; p++ {
		rec := bytes.Repeat([]byte{byte(0x10 + p)}, 1000)
		off := p*mem.PageSize + 40
		copy(mirror[off:], rec)
		now = mustWrite(t, k, now, base+mem.Addr(off), rec)
	}
	if n := fetchCount(k); n != 0 {
		t.Fatalf("writing a fresh allocation fetched %d times, want 0", n)
	}
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["core.fetches"] != 0 || snap.Counters["core.fresh_fills"] != pages {
		t.Fatalf("core.fetches = %d, core.fresh_fills = %d; want 0 and %d",
			snap.Counters["core.fetches"], snap.Counters["core.fresh_fills"], pages)
	}
	for p := 0; p < pages; p++ {
		if k.rm.Lookup(base + mem.Addr(p)*mem.PageSize).Unwritten.Full() {
			t.Fatalf("page %d still fresh after its dirty lines were logged", p)
		}
	}
	coldCache(k)
	_, got := mustRead(t, k, now, base, len(mirror))
	if !bytes.Equal(got, mirror) {
		t.Fatal("bytes written to a fresh allocation did not come back from remote memory")
	}
	// The pages' written lines come back in one span read (DESIGN.md §16).
	if n := fetchCount(k); n != 1 {
		t.Fatalf("cold read of written pages fetched %d times, want 1", n)
	}
}

// TestFreshEndsAtFirstWriteBack is the value-heap pattern: a block carved
// from a page whose earlier blocks were already written back must see them.
func TestFreshEndsAtFirstWriteBack(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	base, err := k.MallocBlocks(mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte{0xAB}, 1000)
	now := mustWrite(t, k, 0, base, first)
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	coldCache(k)
	// The second block starts mid-line: its read-for-ownership must fetch.
	now = mustWrite(t, k, now, base+1000, bytes.Repeat([]byte{0xCD}, 1000))
	if n := fetchCount(k); n != 1 {
		t.Fatalf("carving into a written-back page fetched %d times, want 1", n)
	}
	if _, got := mustRead(t, k, now, base, len(first)); !bytes.Equal(got, first) {
		t.Fatal("first block lost: a page was zero-filled after its write-back")
	}
}

func TestCleanEvictionKeepsPageFresh(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	base, err := k.MallocBlocks(mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	now, got := mustRead(t, k, 0, base, mem.PageSize)
	if !bytes.Equal(got, make([]byte, mem.PageSize)) {
		t.Fatal("fresh page did not read as zeros")
	}
	if !k.fpga.FlushPage(now, base) {
		t.Fatal("page was not resident")
	}
	if st := k.EvictStats(); st.SilentEvicted != 1 || st.DirtyPages != 0 {
		t.Fatalf("eviction was not clean: %+v", st)
	}
	if !k.rm.Lookup(base).Unwritten.Full() {
		t.Fatal("a clean eviction ended the page's freshness")
	}
	mustRead(t, k, now, base, mem.PageSize)
	if n := fetchCount(k); n != 0 {
		t.Fatalf("refill after a clean eviction fetched %d times, want 0", n)
	}
}

func TestPartialPagesOfUnalignedAllocationAreNeverFresh(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	// A neighbour owns the first 64 B of the slab's first page.
	neighbour, err := k.Malloc(mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	mark := bytes.Repeat([]byte{0x5A}, mem.CacheLineSize)
	now := mustWrite(t, k, 0, neighbour, mark)
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	coldCache(k)
	// Three pages starting 64 B into that page: it covers part of pages 0
	// and 3 and all of pages 1 and 2.
	base, err := k.MallocBlocks(3*mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	if base != neighbour+mem.CacheLineSize {
		t.Fatalf("allocator placed the allocation at %v, test expects %v", base, neighbour+mem.CacheLineSize)
	}
	page0 := neighbour
	for p, want := range []bool{false, true, true, false} {
		if got := k.rm.Lookup(page0 + mem.Addr(p)*mem.PageSize).Unwritten.Full(); got != want {
			t.Errorf("page %d fresh = %v, want %v", p, got, want)
		}
	}
	// Writing the allocation's first line must not cost the neighbour its
	// bytes: the shared page is fetched, not zero-filled.
	now = mustWrite(t, k, now, base, bytes.Repeat([]byte{0x77}, mem.CacheLineSize))
	if _, got := mustRead(t, k, now, neighbour, len(mark)); !bytes.Equal(got, mark) {
		t.Fatal("neighbour's bytes in the shared first page were zero-filled")
	}
}

// TestMallocPagesStillFetch pins the semantics internal/experiments relies
// on (fig7 reads never-written Malloc pages as remote data).
func TestMallocPagesStillFetch(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	if _, err := k.MallocBlocks(mem.PageSize, mem.CacheLineSize); err != nil { // makes the group's fresh bitmap
		t.Fatal(err)
	}
	base, err := k.Malloc(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, k, 0, base, 4*mem.PageSize)
	if n := fetchCount(k); n != 1 {
		t.Fatalf("reading 4 Malloc pages fetched %d times, want 1 (one span read)", n)
	}
	if st := k.FPGAStats(); st.FreshFills != 0 {
		t.Fatalf("Malloc pages took %d fresh fills", st.FreshFills)
	}
}

func TestKonaVMFreshAllocation(t *testing.T) {
	const pages = 8
	cfg := smallConfig()
	cfg.LocalCacheBytes = 4 * mem.PageSize // half the region: writes evict
	k := NewKonaVM(cfg, newCluster(1))
	base, err := k.MallocBlocks(pages*mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	mirror := make([]byte, pages*mem.PageSize)
	var now simDurT
	for p := 0; p < pages; p++ {
		rec := bytes.Repeat([]byte{byte(0x20 + p)}, 500)
		off := p*mem.PageSize + 100
		copy(mirror[off:], rec)
		if now, err = k.Write(now, base+mem.Addr(off), rec); err != nil {
			t.Fatal(err)
		}
	}
	st := k.Stats()
	if st.Fetches != 0 || st.FreshFills != pages || st.DirtyEvicted == 0 {
		t.Fatalf("load: %d fetches, %d fresh fills, %d dirty evictions; want 0, %d, some",
			st.Fetches, st.FreshFills, st.DirtyEvicted, pages)
	}
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(mirror))
	if _, err = k.Read(now, base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("bytes written to a fresh allocation did not survive write-back")
	}
	if st = k.Stats(); st.Fetches == 0 || st.FreshFills != pages {
		t.Fatalf("read-back: %d fetches, %d fresh fills; written-back pages must fetch", st.Fetches, st.FreshFills)
	}

	// Malloc on the VM runtime faults its pages in from remote memory.
	plain, err := k.Malloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	before := k.Stats().Fetches
	if _, err = k.Read(now, plain, got[:64]); err != nil {
		t.Fatal(err)
	}
	if k.Stats().Fetches != before+1 {
		t.Fatal("a Malloc page did not fetch on its first fault")
	}
}

// TestSharedGroupIsNeverFresh: A allocates fresh and shares, B writes, A
// reads B's bytes — never the zeros its own allocation bit would produce.
func TestSharedGroupIsNeverFresh(t *testing.T) {
	ctrl := newCluster(1)
	a := NewKona(smallConfig(), ctrl)
	b := NewKona(smallConfig(), ctrl)
	var anow, bnow simDurT
	defer a.Close(anow)
	defer b.Close(bnow)

	addr, err := a.MallocBlocks(2*mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	if !a.rm.Lookup(addr).Unwritten.Full() {
		t.Fatal("allocation not fresh before sharing")
	}
	group, err := a.ShareWriter(addr)
	if err != nil {
		t.Fatal(err)
	}
	if a.rm.Lookup(addr).Unwritten.Full() {
		t.Error("page of a shared group still fresh")
	}
	if anow, err = a.ReleaseWriter(anow, group); err != nil {
		t.Fatal(err)
	}
	if _, _, err = b.AttachReader(group); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xB0}, 200)
	bnow = mustWrite(t, b, bnow, addr+mem.PageSize+10, want) // upgrades to writer
	if bnow, err = b.ReleaseWriter(bnow, group); err != nil {
		t.Fatal(err)
	}
	if _, got := mustRead(t, a, anow, addr+mem.PageSize+10, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("A read %x…, want B's bytes %x…", got[:4], want[:4])
	}
	// The group stays shared: a later fresh allocation in it marks nothing.
	later, err := a.MallocBlocks(mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := a.rm.groupFor(later); s.ID == group && a.rm.Lookup(later).Unwritten.Full() {
		t.Fatal("MallocBlocks marked a page of a shared group")
	}
}

// TestFreshConcurrentCarving has several goroutines carve their own fresh
// regions two blocks per page — the second long after the first, so the
// page has usually been written back in between — while another Syncs.
// The fresh bits are set, read and cleared concurrently; every block must
// come back. Run under -race.
func TestFreshConcurrentCarving(t *testing.T) {
	const workers, pages, block = 4, 64, 1000
	cfg := smallConfig()
	cfg.LocalCacheBytes = 64 * mem.PageSize // a quarter of what is written
	k := NewKona(cfg, newCluster(2))
	stop := make(chan struct{})
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := k.Sync(0); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base, err := k.MallocBlocks(pages*mem.PageSize, mem.CacheLineSize)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			rec := func(p, half int) []byte { return bytes.Repeat([]byte{byte(w<<6 | p&63), byte(half + 1)}, block/2) }
			for half := 0; half < 2; half++ {
				for p := 0; p < pages; p++ {
					if _, err := k.Write(0, base+mem.Addr(p*mem.PageSize+half*block), rec(p, half)); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
			got := make([]byte, block)
			for half := 0; half < 2; half++ {
				for p := 0; p < pages; p++ {
					if _, err := k.Read(0, base+mem.Addr(p*mem.PageSize+half*block), got); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if !bytes.Equal(got, rec(p, half)) {
						t.Errorf("worker %d page %d block %d: read %x…, want %x…", w, p, half, got[:2], rec(p, half)[:2])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-syncDone
}

// Written-lines masks (DESIGN.md §16): a fill zeroes the lines of a
// MallocBlocks page that no write-back has carried and fetches the rest.

// TestWrittenLinesFetchWhilePending: two records' lines are evicted dirty
// and their log entries are still buffered when the page is read again.
// The written lines fetch anyway — the page's mask took them when the
// eviction asked for its placements — and the write-before-read hook ships
// the entries first, so the fetch sees the records; the lines between them
// read as zeros without being fetched.
func TestWrittenLinesFetchWhilePending(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	base, err := k.MallocBlocks(mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, mem.PageSize)
	a := bytes.Repeat([]byte{0xA5}, 543) // lines 0..8
	b := bytes.Repeat([]byte{0x5B}, 543) // lines 16..24
	copy(want, a)
	copy(want[1024:], b)
	now := mustWrite(t, k, 0, base, a)
	now = mustWrite(t, k, now, base+1024, b)
	if !k.fpga.FlushPage(now, base) {
		t.Fatal("page was not resident")
	}
	if st := k.EvictStats(); st.DirtyPages != 1 || st.Flushes != 0 {
		t.Fatalf("eviction: %d dirty pages, %d flushes; want 1 dirty page still buffered", st.DirtyPages, st.Flushes)
	}
	var written mem.LineBitmap
	written.SetRange(0, 9)
	written.SetRange(16, 25)
	if got := k.rm.Lookup(base).Unwritten; got != ^written {
		t.Fatalf("unwritten lines %#x, want %#x", uint64(got), uint64(^written))
	}
	before := k.FPGAStats()
	if _, got := mustRead(t, k, now, base, mem.PageSize); !bytes.Equal(got, want) {
		t.Fatal("read of a page with a pending write-back lost its records or did not zero the rest")
	}
	st := k.FPGAStats()
	if d := st.RemoteFetches - before.RemoteFetches; d != 1 {
		t.Fatalf("read made %d fetches, want 1", d)
	}
	if d := st.BytesFetched - before.BytesFetched; d != 18*mem.CacheLineSize {
		t.Fatalf("read fetched %d B, want the 18 written lines, %d B", d, 18*mem.CacheLineSize)
	}
	if ev := k.EvictStats(); ev.Flushes == 0 || ev.RemoteEntries != ev.Segments {
		t.Fatalf("the fetch did not ship the pending entries first: %d flushes, %d of %d entries applied",
			ev.Flushes, ev.RemoteEntries, ev.Segments)
	}
}

// TestSharedGroupFetchesEveryLine: A writes one record into a fresh page,
// syncs and shares the group; B writes a line A never wrote. Sharing made
// every line of the group read as written, so A's cold read fetches the
// whole page, B's line with it.
func TestSharedGroupFetchesEveryLine(t *testing.T) {
	ctrl := newCluster(1)
	a := NewKona(smallConfig(), ctrl)
	b := NewKona(smallConfig(), ctrl)
	var anow, bnow simDurT
	defer a.Close(anow)
	defer b.Close(bnow)

	addr, err := a.MallocBlocks(mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{0xA0}, 543)
	anow = mustWrite(t, a, anow, addr, rec)
	if anow, err = a.Sync(anow); err != nil {
		t.Fatal(err)
	}
	if a.rm.Lookup(addr).Unwritten == 0 {
		t.Fatal("a page with one record written back reads as all written before sharing")
	}
	group, err := a.ShareWriter(addr)
	if err != nil {
		t.Fatal(err)
	}
	if u := a.rm.Lookup(addr).Unwritten; u != 0 {
		t.Fatalf("page of a shared group has unwritten lines %#x", uint64(u))
	}
	if anow, err = a.ReleaseWriter(anow, group); err != nil {
		t.Fatal(err)
	}
	if _, _, err = b.AttachReader(group); err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{0xB1}, mem.CacheLineSize)
	bnow = mustWrite(t, b, bnow, addr+40*mem.CacheLineSize, line)
	if bnow, err = b.ReleaseWriter(bnow, group); err != nil {
		t.Fatal(err)
	}
	coldCache(a)
	before := a.FPGAStats()
	_, got := mustRead(t, a, anow, addr, mem.PageSize)
	if !bytes.Equal(got[:len(rec)], rec) || !bytes.Equal(got[40*mem.CacheLineSize:41*mem.CacheLineSize], line) {
		t.Fatal("A lost its record or did not see B's line")
	}
	if d := a.FPGAStats().BytesFetched - before.BytesFetched; d != mem.PageSize {
		t.Fatalf("cold read of a shared page fetched %d B, want the whole page", d)
	}
}

// TestKonaVMWriteBackMarksWholePage: the VM runtime writes back and faults
// in whole pages, so a write-back marks every line written and the next
// fault reads the page as before masks — one 4 KB fetch, the bytes the
// write-back carried (zeros around the record included).
func TestKonaVMWriteBackMarksWholePage(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalCacheBytes = 4 * mem.PageSize
	k := NewKonaVM(cfg, newCluster(1))
	base, err := k.MallocBlocks(mem.PageSize, mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	if !k.rm.Lookup(base).Unwritten.Full() {
		t.Fatal("fresh VM page has written lines")
	}
	want := make([]byte, mem.PageSize)
	rec := bytes.Repeat([]byte{0xC4}, 300)
	copy(want[100:], rec)
	now, err := k.Write(0, base+100, rec)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	if u := k.rm.Lookup(base).Unwritten; u != 0 {
		t.Fatalf("VM write-back left unwritten lines %#x, want none", uint64(u))
	}
	// Evict the page by faulting in four others.
	other, err := k.Malloc(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, mem.PageSize)
	for p := 0; p < 4; p++ {
		if now, err = k.Read(now, other+mem.Addr(p)*mem.PageSize, buf[:1]); err != nil {
			t.Fatal(err)
		}
	}
	before := k.Stats()
	if _, err = k.Read(now, base, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("VM page read back wrong bytes")
	}
	if st := k.Stats(); st.Fetches != before.Fetches+1 || st.FreshFills != before.FreshFills {
		t.Fatalf("fault on a written-back page: %d fetches, %d fresh fills; want 1 and 0",
			st.Fetches-before.Fetches, st.FreshFills-before.FreshFills)
	}
}

// TestStraddlingSpanReadCountsFallback pins fpga.Stats.SpanFallbacks. The
// slab allocator coalesces adjacent grants, so a MallocBlocks chunk can
// straddle two slabs placed on different memnodes; a multi-page read across
// them cannot be one span read and falls back to one fetch per page. That
// fallback must show as exactly one SpanFallbacks, and a multi-page read
// inside one slab as none.
func TestStraddlingSpanReadCountsFallback(t *testing.T) {
	const pages = 4
	cfg := smallConfig()
	cfg.SlabSize = 16 * mem.PageSize
	k := NewKona(cfg, newCluster(2))
	if _, err := k.Malloc(13 * mem.PageSize); err != nil {
		t.Fatal(err)
	}
	base, err := k.MallocBlocks(pages*mem.PageSize, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := func(p int) int {
		pls, err := k.rm.placementsFor(base + mem.Addr(p*mem.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		return pls[0].link.id()
	}
	// The chunk starts in the first slab's last 3 pages (node 0) and ends in
	// the second slab (node 1).
	const inFirst = 3
	for p := 0; p < pages; p++ {
		if want := min(p/inFirst, 1); nodeOf(p) != want {
			t.Fatalf("page %d of the chunk is on node %d, test expects node %d", p, nodeOf(p), want)
		}
	}
	data := make([]byte, pages*mem.PageSize)
	for i := range data {
		data[i] = byte(i*7 + i/mem.PageSize)
	}
	now := mustWrite(t, k, 0, base, data)
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		pages     int
		fallbacks uint64
	}{
		{"straddling both slabs", pages, 1},
		{"inside the first slab", inFirst, 0},
	} {
		coldCache(k)
		before := k.FPGAStats()
		want := data[:c.pages*mem.PageSize]
		if _, got := mustRead(t, k, now, base, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("%s: the read returned the wrong bytes", c.name)
		}
		after := k.FPGAStats()
		if got := after.SpanFallbacks - before.SpanFallbacks; got != c.fallbacks {
			t.Errorf("%s: a %d-page read counted %d span fallbacks (%d fetches), want %d",
				c.name, c.pages, got, after.RemoteFetches-before.RemoteFetches, c.fallbacks)
		}
	}
}
