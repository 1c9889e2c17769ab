package core

import (
	"testing"
	"time"

	"kona/internal/cluster"
	"kona/internal/mem"
)

// TestSyncCostIgnoresHighWater is the `make guards` guard on the write-back
// path's cost model (DESIGN.md §9, §15): a Sync costs what is dirty now,
// not what was ever buffered. Runtime A pushes 64k dirty pages through the
// eviction handler without a full flush — the load phase of the repository
// benchmark — and drains; runtime B is fresh. Both then time a Sync of the
// same 200 dirty pages, minimum of 20 repetitions each, and A may take at
// most twice B's time.
//
// This one guard is wall-clock, so its noise floor is stated. Links are
// fakes (a ship is a function call, and the 256 MB the pages map to is
// never touched), which leaves FlushDirty, the steal and the harvest as
// the whole Sync. Measured on the 2-vCPU development box, five runs each:
//
//	parent (map iterate + clear per steal): A 318-335 µs, B 92-97 µs, A/B 3.28-3.52
//	this change (pendingSet drain):         A  87-93 µs,  B 84-90 µs, A/B 0.99-1.06
//
// The steal alone was ~225 µs of A's Sync at the parent (0.5 ms in the
// benchmark's rt-page, whose Sync ships ~6k pages in ~2.6 ms). The minimum
// of 20 moved by at most 7% run to run on either side, so the 2x bound sits
// well clear of both 1x and the regression.
func TestSyncCostIgnoresHighWater(t *testing.T) {
	const (
		loadPages  = 64 << 10
		dirtyPages = 200
		reps       = 20
		chunk      = 4 << 20 // smallConfig's slab size
	)
	build := func() (*Kona, []mem.Addr) {
		ctrl := cluster.NewController()
		if err := ctrl.Register(cluster.NewMemoryNode(0, loadPages*mem.PageSize)); err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig()
		cfg.Shards = 1 // one pending set takes the whole high-water mark
		k := newKona(cfg.withDefaults(), nextRuntimeID(), newFakeLinks(false), localControl{ctrl})
		var pages []mem.Addr
		for len(pages) < loadPages {
			base, err := k.Malloc(chunk)
			if err != nil {
				t.Fatal(err)
			}
			for off := mem.Addr(0); off < chunk; off += mem.PageSize {
				pages = append(pages, base+off)
			}
		}
		return k, pages
	}
	line := make([]byte, mem.CacheLineSize)
	syncMin := func(k *Kona, pages []mem.Addr) time.Duration {
		best := time.Duration(1 << 62)
		for r := 0; r < reps; r++ {
			for i := 0; i < dirtyPages; i++ {
				mustWrite(t, k, 0, pages[i*(loadPages/dirtyPages)], line)
			}
			before := k.EvictStats().DirtyPages
			start := time.Now()
			if _, err := k.Sync(0); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			if got := k.EvictStats().DirtyPages - before; got != dirtyPages {
				t.Fatalf("rep %d: Sync flushed %d pages, want %d", r, got, dirtyPages)
			}
		}
		return best
	}

	a, pagesA := build()
	for _, p := range pagesA { // 64k capacity evictions of dirty pages, no Sync
		mustWrite(t, a, 0, p, line)
	}
	if _, err := a.Sync(0); err != nil {
		t.Fatal(err)
	}
	if got := a.EvictStats().DirtyPages; got != loadPages {
		t.Fatalf("load evicted %d dirty pages, want %d", got, loadPages)
	}
	b, pagesB := build()
	if pagesA[0] != pagesB[0] {
		t.Fatalf("runtimes laid out differently: %v vs %v", pagesA[0], pagesB[0])
	}
	ta, tb := syncMin(a, pagesA), syncMin(b, pagesB)
	t.Logf("Sync of %d dirty pages: after a %d-page high-water mark %v, fresh %v (ratio %.2f)",
		dirtyPages, loadPages, ta, tb, float64(ta)/float64(tb))
	if ta > 2*tb {
		t.Errorf("Sync after a %d-page backlog takes %v, %.1fx the fresh runtime's %v: write-back cost follows a past high-water mark",
			loadPages, ta, float64(ta)/float64(tb), tb)
	}
}
