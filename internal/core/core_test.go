package core

import (
	"bytes"
	"math/rand"
	"testing"

	"kona/internal/cluster"
	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/telemetry"
)

// newCluster builds a controller with n memory nodes of 64MB each.
func newCluster(n int) *cluster.Controller {
	ctrl := cluster.NewController()
	for i := 0; i < n; i++ {
		if err := ctrl.Register(cluster.NewMemoryNode(i, 64<<20)); err != nil {
			panic(err)
		}
	}
	return ctrl
}

func smallConfig() Config {
	cfg := DefaultConfig(256 * mem.PageSize)
	cfg.SlabSize = 4 << 20
	cfg.PrefetchDepth = 0
	return cfg
}

func TestKonaReadYourWrites(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	addr, err := k.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("coherence-based remote memory")
	if _, err := k.Write(0, addr+100, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := k.Read(0, addr+100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("read-your-writes violated: %q", buf)
	}
}

func TestKonaSyncMakesRemoteCurrent(t *testing.T) {
	ctrl := newCluster(1)
	k := NewKona(smallConfig(), ctrl)
	addr, err := k.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 200)
	if _, err := k.Write(0, addr, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sync(0); err != nil {
		t.Fatal(err)
	}
	// The memory node's pool must now contain the data at the slab offset.
	node, _ := ctrl.Node(0)
	pls, err := k.rm.placementsFor(addr)
	if err != nil {
		t.Fatal(err)
	}
	off := pls[0].remoteOff
	got := node.PoolBytes()[off : off+200]
	if !bytes.Equal(got, payload) {
		t.Fatalf("remote pool stale after Sync")
	}
	// Only the dirty lines were shipped: 200 bytes in lines 0..3 => 4
	// lines = 256 payload bytes, far under a 4KB page.
	st := k.EvictStats()
	if st.PayloadBytes != 256 {
		t.Errorf("payload bytes = %d, want 256 (4 lines)", st.PayloadBytes)
	}
	if st.LinesShipped != 4 || st.Segments != 1 {
		t.Errorf("lines=%d segments=%d, want 4/1", st.LinesShipped, st.Segments)
	}
}

func TestKonaDirtyTrackingGranularity(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	addr, err := k.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	// Touch two separate lines.
	if _, err := k.Write(0, addr, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(0, addr+10*64, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	d := k.DirtyLines(addr)
	if d.Count() != 2 || !d.Get(0) || !d.Get(10) {
		t.Errorf("dirty = %b", d)
	}
	// Reads do not dirty.
	if _, err := k.Read(0, addr+20*64, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if k.DirtyLines(addr).Count() != 2 {
		t.Errorf("read dirtied a line")
	}
}

func TestKonaCapacityEvictionRoundTrip(t *testing.T) {
	// Cache of 64 pages; write 256 pages, then read everything back:
	// evicted dirty data must survive the trip through the CL log.
	cfg := smallConfig()
	cfg.LocalCacheBytes = 64 * mem.PageSize
	k := NewKona(cfg, newCluster(2))
	const pages = 256
	addr, err := k.Malloc(pages * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	want := make([][]byte, pages)
	now := simDur(0)
	for p := 0; p < pages; p++ {
		val := make([]byte, 64)
		rng.Read(val)
		want[p] = val
		now, err = k.Write(now, addr+mem.Addr(p*mem.PageSize+128), val)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Sync(now); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		buf := make([]byte, 64)
		if _, err := k.Read(now, addr+mem.Addr(p*mem.PageSize+128), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[p]) {
			t.Fatalf("page %d corrupted after eviction round trip", p)
		}
	}
	st := k.EvictStats()
	if st.PagesEvicted == 0 || st.DirtyPages == 0 {
		t.Errorf("no evictions happened: %+v", st)
	}
	// Goodput advantage: wire bytes must be a small multiple of payload
	// (headers only), far below page-granularity shipping.
	if st.WireBytes > 2*st.PayloadBytes {
		t.Errorf("wire bytes %d vs payload %d: header overhead too high", st.WireBytes, st.PayloadBytes)
	}
	if pageBytes := st.DirtyPages * mem.PageSize; st.WireBytes*4 > pageBytes {
		t.Errorf("CL log shipped %d bytes; page granularity would ship %d — expected >4x reduction", st.WireBytes, pageBytes)
	}
}

func TestKonaMallocGrowsSlabs(t *testing.T) {
	cfg := smallConfig()
	k := NewKona(cfg, newCluster(1))
	// Allocate more than one slab's worth in slab-sized pieces.
	for i := 0; i < 3; i++ {
		if _, err := k.Malloc(3 << 20); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := k.Malloc(0); err == nil {
		t.Errorf("zero malloc succeeded")
	}
	if _, err := k.Malloc(64 << 20); err == nil {
		t.Errorf("malloc beyond slab size succeeded")
	}
}

func TestKonaFree(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	addr, err := k.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := k.Free(addr); err == nil {
		t.Errorf("double free succeeded")
	}
}

func TestKonaVMRoundTrip(t *testing.T) {
	k := NewKonaVM(smallConfig(), newCluster(1))
	addr, err := k.Malloc(16 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("page-based baseline")
	if _, err := k.Write(0, addr+4096+17, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := k.Read(0, addr+4096+17, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("vm read-your-writes violated: %q", buf)
	}
	st := k.Stats()
	if st.Fetches != 1 {
		t.Errorf("fetches = %d, want 1", st.Fetches)
	}
	if st.WPFaults != 1 {
		t.Errorf("wp faults = %d, want 1 (first store)", st.WPFaults)
	}
}

// Cached answers from each runtime's own cache: Kona per FMem line (a
// plain page fills whole, so every line of a fetched page is cached),
// KonaVM per cached page; an untouched page is cached in neither.
func TestCachedFollowsTheCache(t *testing.T) {
	for name, rt := range map[string]interface {
		Malloc(uint64) (mem.Addr, error)
		Read(simclock.Duration, mem.Addr, []byte) (simclock.Duration, error)
		Cached(mem.Addr) bool
	}{
		"kona":   NewKona(smallConfig(), newCluster(1)),
		"konavm": NewKonaVM(smallConfig(), newCluster(1)),
	} {
		addr, err := rt.Malloc(4 * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Cached(addr) {
			t.Errorf("%s: line of a page never touched reported cached", name)
		}
		if _, err := rt.Read(0, addr+100, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		if !rt.Cached(addr+100) || !rt.Cached(addr+mem.PageSize-1) || rt.Cached(addr+mem.PageSize) {
			t.Errorf("%s: after a read of page 0, cached = %t (read line), %t (its last line), %t (page 1); want true, true, false",
				name, rt.Cached(addr+100), rt.Cached(addr+mem.PageSize-1), rt.Cached(addr+mem.PageSize))
		}
	}
}

func TestKonaVMTwoFaultsPerColdWrite(t *testing.T) {
	// §6.1: "Kona-VM incurs two page faults for caching a remote page" on
	// a cold write: the major fetch fault plus the WP minor fault.
	k := NewKonaVM(smallConfig(), newCluster(1))
	addr, _ := k.Malloc(4 * mem.PageSize)
	if _, err := k.Write(0, addr, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	as := k.as.Stats()
	if as.MajorFaults != 1 || as.WPFaults != 1 {
		t.Errorf("faults = %+v, want 1 major + 1 WP", as)
	}
	// NoWP variant: single fault.
	k2 := NewKonaVM(smallConfig(), newCluster(1))
	k2.WriteProtect = false
	addr2, _ := k2.Malloc(4 * mem.PageSize)
	if _, err := k2.Write(0, addr2, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	as2 := k2.as.Stats()
	if as2.MajorFaults != 1 || as2.WPFaults != 0 {
		t.Errorf("NoWP faults = %+v, want 1 major only", as2)
	}
}

func TestKonaVMEvictionWritesWholePages(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	k := NewKonaVM(cfg, newCluster(1))
	addr, _ := k.Malloc(32 * mem.PageSize)
	now := simDur(0)
	var err error
	for p := 0; p < 32; p++ {
		// One tiny write per page: page granularity ships 4KB anyway.
		now, err = k.Write(now, addr+mem.Addr(p*mem.PageSize), make([]byte, 8))
		if err != nil {
			t.Fatal(err)
		}
	}
	st := k.Stats()
	if st.Evictions < 20 {
		t.Fatalf("evictions = %d, expected most pages evicted", st.Evictions)
	}
	if st.WireBytes != st.DirtyEvicted*mem.PageSize {
		t.Errorf("wire bytes = %d, want full pages (%d)", st.WireBytes, st.DirtyEvicted*mem.PageSize)
	}
	if k.CachedPages() > 8 {
		t.Errorf("cache over capacity: %d", k.CachedPages())
	}
	// Read back data that went through eviction.
	buf := make([]byte, 8)
	if _, err := k.Read(now, addr, buf); err != nil {
		t.Fatal(err)
	}
}

func TestKonaVMSync(t *testing.T) {
	ctrl := newCluster(1)
	k := NewKonaVM(smallConfig(), ctrl)
	addr, _ := k.Malloc(4096)
	payload := bytes.Repeat([]byte{9}, 100)
	if _, err := k.Write(0, addr, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sync(0); err != nil {
		t.Fatal(err)
	}
	node, _ := ctrl.Node(0)
	pls, err := k.rm.placementsFor(addr)
	if err != nil {
		t.Fatal(err)
	}
	off := pls[0].remoteOff
	if !bytes.Equal(node.PoolBytes()[off:off+100], payload) {
		t.Fatalf("vm sync did not reach remote pool")
	}
	// After sync the page is re-protected: the next write faults again.
	wpBefore := k.as.Stats().WPFaults
	if _, err := k.Write(0, addr, payload); err != nil {
		t.Fatal(err)
	}
	if k.as.Stats().WPFaults != wpBefore+1 {
		t.Errorf("re-protection after sync did not re-arm WP tracking")
	}
}

// Kona must be substantially faster than Kona-VM on the paper's core
// pattern: touch one cache line per page over many remote pages.
func TestKonaBeatsKonaVM(t *testing.T) {
	const pages = 512
	mkAddrs := func() []mem.Addr {
		out := make([]mem.Addr, pages)
		for i := range out {
			out[i] = mem.Addr(i * mem.PageSize)
		}
		return out
	}
	cfg := smallConfig()
	cfg.LocalCacheBytes = pages / 2 * mem.PageSize // 50% local cache

	kona := NewKona(cfg, newCluster(1))
	kaddr, _ := kona.Malloc(pages * mem.PageSize)
	var tk simDurT
	buf := make([]byte, 64)
	for _, off := range mkAddrs() {
		var err error
		tk, err = kona.Read(tk, kaddr+off, buf)
		if err != nil {
			t.Fatal(err)
		}
		tk, err = kona.Write(tk, kaddr+off, buf)
		if err != nil {
			t.Fatal(err)
		}
	}

	kvm := NewKonaVM(cfg, newCluster(1))
	vaddr, _ := kvm.Malloc(pages * mem.PageSize)
	var tv simDurT
	for _, off := range mkAddrs() {
		var err error
		tv, err = kvm.Read(tv, vaddr+off, buf)
		if err != nil {
			t.Fatal(err)
		}
		tv, err = kvm.Write(tv, vaddr+off, buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	if tk*2 >= tv {
		t.Errorf("Kona (%v) not at least 2x faster than Kona-VM (%v)", tk, tv)
	}
	t.Logf("Kona %v vs Kona-VM %v (%.1fx)", tk, tv, float64(tv)/float64(tk))
}

// TestPrefetchStopsAtEndOfMemory reads every page of a one-slab region
// with the next-page prefetcher on. The page past the slab is in no slab,
// so the prefetcher leaves it alone: no frame is installed for it, and no
// fetch is started for it.
func TestPrefetchStopsAtEndOfMemory(t *testing.T) {
	const pages = 16
	cfg := smallConfig()
	cfg.SlabSize = pages * mem.PageSize
	cfg.PrefetchDepth = 1
	cfg.Metrics = telemetry.New(0)
	k := NewKona(cfg, newCluster(1))
	addr, err := k.Malloc(pages * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	now := simDur(0)
	buf := make([]byte, 8)
	for p := 0; p < pages; p++ {
		if now, err = k.Read(now, addr+mem.Addr(p*mem.PageSize), buf); err != nil {
			t.Fatal(err)
		}
	}
	k.PublishTelemetry()
	fetches := cfg.Metrics.Snapshot().Counters["core.fetches"]
	if n := k.fpga.Occupancy(); n != pages || k.fpga.Resident(addr+pages*mem.PageSize) {
		t.Errorf("%d frames resident after reading %d pages (past-the-end page resident: %v)",
			n, pages, k.fpga.Resident(addr+pages*mem.PageSize))
	}
	if st := k.FPGAStats(); st.RemoteFetches != pages || fetches != pages {
		t.Errorf("RemoteFetches %d, core.fetches %d; want %d each", st.RemoteFetches, fetches, pages)
	}
}
