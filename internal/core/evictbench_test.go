package core

import (
	"testing"
	"testing/quick"

	"kona/internal/cllog"
	"kona/internal/mem"
)

func TestEvictionBenchShipsExactPayload(t *testing.T) {
	var dirty mem.LineBitmap
	dirty.SetRange(0, 4)
	elapsed, b, st, err := EvictionBench(newCluster(1), DefaultConfig(1<<20), 64, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
	if st.DirtyPages != 64 || st.Segments != 64 {
		t.Errorf("stats = %+v, want 64 pages / 64 segments", st)
	}
	if st.PayloadBytes != 64*4*64 {
		t.Errorf("payload = %d, want %d", st.PayloadBytes, 64*4*64)
	}
	if b.Total() <= 0 || b.Copy <= 0 || b.Bitmap <= 0 {
		t.Errorf("breakdown incomplete: %+v", b)
	}
	// One flush at the end at minimum, and the receiver applied entries.
	if st.Flushes == 0 || st.AcksReceived == 0 {
		t.Errorf("no flush/ack recorded: %+v", st)
	}
}

func TestEvictionBenchRejectsCleanBitmap(t *testing.T) {
	if _, _, _, err := EvictionBench(newCluster(1), DefaultConfig(1<<20), 8, 0); err == nil {
		t.Errorf("clean bitmap accepted")
	}
	if _, err := EvictionBenchSG(newCluster(1), DefaultConfig(1<<20), 8, 0); err == nil {
		t.Errorf("SG clean bitmap accepted")
	}
}

func TestEvictionBenchSGWorseThanLog(t *testing.T) {
	var dirty mem.LineBitmap
	for i := 0; i < 8; i++ {
		dirty.Set(i * 2) // 8 discontiguous lines: SG's worst case
	}
	logT, _, _, err := EvictionBench(newCluster(1), DefaultConfig(1<<20), 128, dirty)
	if err != nil {
		t.Fatal(err)
	}
	sgT, err := EvictionBenchSG(newCluster(1), DefaultConfig(1<<20), 128, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if sgT <= logT {
		t.Errorf("scatter-gather (%v) should lose to CL log (%v) on discontiguous lines (§6.4)", sgT, logT)
	}
}

func TestEvictionBenchReplicatedDoublesWire(t *testing.T) {
	var dirty mem.LineBitmap
	dirty.Set(0)
	cfg1 := DefaultConfig(1 << 20)
	_, _, st1, err := EvictionBench(newCluster(2), cfg1, 64, dirty)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig(1 << 20)
	cfg2.Replicas = 2
	_, _, st2, err := EvictionBench(newCluster(2), cfg2, 64, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st2.WireBytes < 2*st1.WireBytes*9/10 {
		t.Errorf("replicated wire bytes %d, want ~2x of %d", st2.WireBytes, st1.WireBytes)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{LocalCacheBytes: 1 << 20}.withDefaults()
	if cfg.SlabSize == 0 || cfg.LogBytes == 0 || cfg.FlushThreshold == 0 || cfg.Replicas != 1 {
		t.Errorf("defaults missing: %+v", cfg)
	}
	if cfg.FlushThreshold != cfg.LogBytes/4 {
		t.Errorf("flush threshold default = %d", cfg.FlushThreshold)
	}
	// Explicit values survive.
	cfg2 := Config{LocalCacheBytes: 1 << 20, SlabSize: 1 << 20, Replicas: 3, LogBytes: 8 << 10, FlushThreshold: 100}.withDefaults()
	if cfg2.SlabSize != 1<<20 || cfg2.Replicas != 3 || cfg2.LogBytes != 8<<10 || cfg2.FlushThreshold != 100 {
		t.Errorf("explicit config clobbered: %+v", cfg2)
	}
}

func TestKonaStatsAccessors(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	addr, err := k.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(0, addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if st := k.FPGAStats(); st.Writebacks == 0 || st.RemoteFetches == 0 {
		t.Errorf("FPGAStats empty: %+v", st)
	}
	if _, err := k.Sync(0); err != nil {
		t.Fatal(err)
	}
	if k.EvictBreakdown().Total() <= 0 {
		t.Errorf("breakdown empty after sync")
	}
}

func TestKonaVMFree(t *testing.T) {
	k := NewKonaVM(smallConfig(), newCluster(1))
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

func TestSyncSurfacesAsyncEvictError(t *testing.T) {
	// Fail the only node after data is cached; the asynchronous eviction
	// then fails, and Sync must surface it.
	ctrl := newCluster(1)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 4 * mem.PageSize
	k := NewKona(cfg, ctrl)
	addr, err := k.Malloc(64 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(0, addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	n, _ := ctrl.Node(0)
	n.Fail()
	if _, err := k.Sync(0); err == nil {
		t.Errorf("Sync swallowed the eviction failure on a dead node")
	}
}

// Property: for random dirty bitmaps, the evictor ships exactly the dirty
// payload plus deterministic header overhead.
func TestEvictionAccountingQuick(t *testing.T) {
	f := func(bits uint64, pages8 uint8) bool {
		dirty := mem.LineBitmap(bits)
		if !dirty.Any() {
			return true
		}
		pages := int(pages8%16) + 1
		_, _, st, err := EvictionBench(newCluster(1), DefaultConfig(1<<20), pages, dirty)
		if err != nil {
			return false
		}
		wantPayload := uint64(pages * dirty.Count() * mem.CacheLineSize)
		if st.PayloadBytes != wantPayload {
			return false
		}
		segs := uint64(len(dirty.Segments()))
		wantWire := wantPayload + segs*uint64(pages)*cllog.HeaderSize + st.Flushes*cllog.TerminatorSize
		return st.WireBytes == wantWire && st.DirtyPages == uint64(pages)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
