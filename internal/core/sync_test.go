package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"kona/internal/mem"
	"kona/internal/telemetry"
)

// The Sync contract (DESIGN.md §15): Sync is a write-back barrier, not an
// invalidation. Dirty pages go through the eviction path and leave FMem;
// clean pages stay exactly where they are.

// syncRegion allocates pages pages and fills remote memory with a known
// pattern: every page written, Synced (so FMem holds none of them) and
// mirrored on the host.
func syncRegion(t *testing.T, k *Kona, pages int) (mem.Addr, []byte, simDurT) {
	t.Helper()
	base, err := k.Malloc(uint64(pages) * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	mirror := make([]byte, pages*mem.PageSize)
	rand.New(rand.NewSource(int64(pages))).Read(mirror)
	now := mustWrite(t, k, 0, base, mirror)
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	return base, mirror, now
}

// readPages reads pages [lo, hi) whole and checks them against the mirror.
func readPages(t *testing.T, k *Kona, now simDurT, base mem.Addr, mirror []byte, lo, hi int) simDurT {
	t.Helper()
	for p := lo; p < hi; p++ {
		var got []byte
		now, got = mustRead(t, k, now, base+mem.Addr(p)*mem.PageSize, mem.PageSize)
		if !bytes.Equal(got, mirror[p*mem.PageSize:(p+1)*mem.PageSize]) {
			t.Fatalf("page %d diverged from mirror", p)
		}
	}
	return now
}

// TestSyncKeepsCleanWorkingSet is the `make guards` guard: a Sync
// over a clean, resident working set must hand no frame to the eviction
// handler, and the read pass after it must not issue a single remote
// fetch. It also pins the two per-Sync counters and that the eviction
// counters do not count frames Sync merely skipped.
func TestSyncKeepsCleanWorkingSet(t *testing.T) {
	const pages = 64 // a quarter of smallConfig's 256-page FMem
	reg := telemetry.New(0)
	cfg := smallConfig()
	cfg.Metrics = reg
	k := NewKona(cfg, newCluster(1))
	base, mirror, now := syncRegion(t, k, pages)

	if got := reg.Gauge("core.sync.flushed_pages").Value(); got != pages {
		t.Errorf("core.sync.flushed_pages = %d after flushing the load, want %d", got, pages)
	}
	now = readPages(t, k, now, base, mirror, 0, pages)
	fetches, evicts := k.FPGAStats(), k.EvictStats()
	if fetches.RemoteFetches != pages {
		t.Fatalf("warm-up fetched %d pages, want %d", fetches.RemoteFetches, pages)
	}
	evCounter := reg.Counter("core.evictions").Value()

	for i := 0; i < 2; i++ {
		var err error
		if now, err = k.Sync(now); err != nil {
			t.Fatal(err)
		}
		now = readPages(t, k, now, base, mirror, 0, pages)
	}

	if st := k.FPGAStats(); st.RemoteFetches != fetches.RemoteFetches || st.Evictions != fetches.Evictions {
		t.Errorf("Sync over a clean working set: %d refetches, %d FMem evictions; want 0, 0",
			st.RemoteFetches-fetches.RemoteFetches, st.Evictions-fetches.Evictions)
	}
	if st := k.EvictStats(); st.PagesEvicted != evicts.PagesEvicted || st.SilentEvicted != evicts.SilentEvicted {
		t.Errorf("Sync handed %d clean frames to the eviction handler (%d silent)",
			st.PagesEvicted-evicts.PagesEvicted, st.SilentEvicted-evicts.SilentEvicted)
	}
	if got := reg.Counter("core.evictions").Value(); got != evCounter {
		t.Errorf("core.evictions moved by %d across clean Syncs", got-evCounter)
	}
	if f, r := reg.Gauge("core.sync.flushed_pages").Value(), reg.Gauge("core.sync.retained_pages").Value(); f != 0 || r != pages {
		t.Errorf("core.sync.{flushed,retained}_pages = %d, %d; want 0, %d", f, r, pages)
	}
}

// TestSyncFlushedPagesRefetch: the pages a Sync wrote back leave FMem, so
// their next read comes from remote memory — and returns the new bytes.
func TestSyncFlushedPagesRefetch(t *testing.T) {
	const pages, dirty = 32, 5
	k := NewKona(smallConfig(), newCluster(1))
	base, mirror, now := syncRegion(t, k, pages)
	now = readPages(t, k, now, base, mirror, 0, pages)

	for p := 0; p < dirty; p++ {
		off := p*mem.PageSize + 300
		patch := bytes.Repeat([]byte{0xC0 + byte(p)}, 100)
		now = mustWrite(t, k, now, base+mem.Addr(off), patch)
		copy(mirror[off:], patch)
	}
	before := k.FPGAStats().RemoteFetches
	var err error
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if resident := k.fpga.Resident(base + mem.Addr(p)*mem.PageSize); resident != (p >= dirty) {
			t.Errorf("page %d resident=%v after Sync, want %v", p, resident, p >= dirty)
		}
	}
	readPages(t, k, now, base, mirror, 0, pages)
	if got := k.FPGAStats().RemoteFetches - before; got != dirty {
		t.Errorf("read pass after Sync fetched %d pages, want the %d flushed ones", got, dirty)
	}
}

// TestSyncRetainedPagesSurvivePrimaryKill: with Replicas=2, clean pages
// kept across a Sync keep serving from FMem after the primary dies, and a
// page that Sync flushed refetches through replica failover.
func TestSyncRetainedPagesSurvivePrimaryKill(t *testing.T) {
	const pages = 16
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.Replicas = 2
	k := NewKona(cfg, ctrl)
	base, mirror, now := syncRegion(t, k, pages)
	now = readPages(t, k, now, base, mirror, 0, pages)

	patch := bytes.Repeat([]byte{0x77}, 64)
	now = mustWrite(t, k, now, base+128, patch) // page 0 is dirty at this Sync
	copy(mirror[128:], patch)
	var err error
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}

	pls, err := k.rm.placementsFor(base)
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := ctrl.Node(pls[0].link.id())
	primary.Fail()

	before := k.FPGAStats().RemoteFetches
	now = readPages(t, k, now, base, mirror, 1, pages)
	if got := k.FPGAStats().RemoteFetches - before; got != 0 {
		t.Errorf("clean resident pages refetched %d times after the primary died", got)
	}
	if fo := k.FailureStats().Failovers; fo != 0 {
		t.Errorf("FMem hits recorded %d failovers", fo)
	}
	readPages(t, k, now, base, mirror, 0, 1)
	if got := k.FPGAStats().RemoteFetches - before; got != 1 {
		t.Errorf("flushed page fetched %d times, want 1", got)
	}
	if k.FailureStats().Failovers == 0 {
		t.Errorf("flushed page's refetch did not fail over to the replica")
	}
}

// TestSyncConcurrentWithReadersAndWriters runs a stream of Syncs against
// writers (each mirroring a private region) and readers of a read-only
// region, under -race in `make race`/`make stress`. Every read must match
// its mirror, and the read-only region — never dirty, never under
// capacity pressure — must still be resident after all those Syncs.
func TestSyncConcurrentWithReadersAndWriters(t *testing.T) {
	const roPages, rwPages, writers, readers, steps, syncs = 32, 16, 2, 2, 600, 150
	cfg := smallConfig()
	cfg.Shards = 4
	k := NewKona(cfg, newCluster(2))
	roBase, roMirror, now := syncRegion(t, k, roPages)
	now = readPages(t, k, now, roBase, roMirror, 0, roPages)

	var workers sync.WaitGroup
	var rwBase [writers]mem.Addr
	var rwMirror [writers][]byte // written by writer w only, read after the join
	for w := range rwBase {
		rwBase[w], rwMirror[w], _ = syncRegion(t, k, rwPages)
	}
	for w := range rwBase {
		base, mirror := rwBase[w], rwMirror[w]
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(stressSeed(21) + int64(w)))
			var now simDurT
			var err error
			for i := 0; i < steps; i++ {
				off := rng.Intn(len(mirror) - 256)
				if rng.Intn(2) == 0 {
					data := make([]byte, 1+rng.Intn(255))
					rng.Read(data)
					if now, err = k.Write(now, base+mem.Addr(off), data); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					copy(mirror[off:], data)
					continue
				}
				buf := make([]byte, 256)
				if now, err = k.Read(now, base+mem.Addr(off), buf); err != nil {
					t.Errorf("writer %d: read: %v", w, err)
					return
				}
				if !bytes.Equal(buf, mirror[off:off+256]) {
					t.Errorf("writer %d step %d: read at +%d diverged from mirror", w, i, off)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		workers.Add(1)
		go func(r int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(stressSeed(22) + int64(r)))
			var now simDurT
			var err error
			buf := make([]byte, 512)
			for i := 0; i < steps; i++ {
				off := rng.Intn(len(roMirror) - len(buf))
				if now, err = k.Read(now, roBase+mem.Addr(off), buf); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !bytes.Equal(buf, roMirror[off:off+len(buf)]) {
					t.Errorf("reader %d step %d: read at +%d diverged from mirror", r, i, off)
					return
				}
			}
		}(r)
	}
	workers.Add(1)
	go func() {
		defer workers.Done()
		var now simDurT
		var err error
		for i := 0; i < syncs; i++ {
			if now, err = k.Sync(now); err != nil {
				t.Errorf("sync %d: %v", i, err)
				return
			}
			runtime.Gosched()
		}
	}()
	workers.Wait()
	if t.Failed() {
		return
	}

	var err error
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	before := k.FPGAStats().RemoteFetches
	now = readPages(t, k, now, roBase, roMirror, 0, roPages)
	if got := k.FPGAStats().RemoteFetches - before; got != 0 {
		t.Errorf("read-only region refetched %d pages across %d concurrent Syncs", got, syncs)
	}
	for w := range rwBase {
		now = readPages(t, k, now, rwBase[w], rwMirror[w], 0, rwPages)
	}
}
