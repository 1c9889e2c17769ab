package core

import (
	"reflect"
	"strings"
	"testing"

	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/telemetry"
)

// TestPublishedCountsSumAcrossRuntimes shares one registry between two
// runtimes that both evict dirty pages, refetch and Sync. Each published
// counter then holds the sum of the two runtimes' own counts, the arena
// gauge the sum of their held bytes, and a further publish adds nothing.
// The runtimes then Sync different numbers of dirty pages, and each
// per-Sync gauge holds the sum of the two runtimes' latest values, also
// after one of them Syncs clean.
func TestPublishedCountsSumAcrossRuntimes(t *testing.T) {
	reg := telemetry.New(0)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 16 * mem.PageSize
	cfg.Metrics = reg
	ctrl := newCluster(1)
	var ks [2]*Kona
	var addrs [2]mem.Addr
	var nows [2]simclock.Duration
	for i := range ks {
		ks[i] = NewKona(cfg, ctrl)
		k := ks[i]
		pages := 48 + 16*i // the runtimes' counts differ
		addr, err := k.Malloc(uint64(pages) * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		now := simDur(0)
		line := make([]byte, mem.CacheLineSize)
		for p := 0; p < pages; p++ {
			if now, err = k.Write(now, addr+mem.Addr(p*mem.PageSize), line); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 2; r++ { // a refetch of an evicted page, then a hit
			if now, err = k.Read(now, addr, line); err != nil {
				t.Fatal(err)
			}
		}
		if nows[i], err = k.Sync(now); err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	snap := reg.Snapshot()
	for _, row := range &publishedCounts {
		var want uint64
		for _, k := range ks {
			want += row.get(counts{fpga: k.FPGAStats(), evict: k.EvictStats(), fail: k.FailureStats()})
		}
		if got, ok := snap.Counters[row.name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), the runtimes' counts sum to %d", row.name, got, ok, want)
		}
	}
	if got, want := snap.Gauges["core.evict.arena_bytes"], ks[0].evict.arenaHeld()+ks[1].evict.arenaHeld(); got != want {
		t.Errorf("core.evict.arena_bytes = %d, the runtimes hold %d", got, want)
	}
	var causes uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "core.fpga.fetches.") {
			causes += v
		}
	}
	if f := snap.Counters["core.fetches"]; f != causes || f == 0 {
		t.Errorf("core.fetches = %d, its causes sum to %d", f, causes)
	}
	// The names the benchmark's per-layer metrics read: each must be a
	// published count, or a rename would zero its metric silently.
	for _, name := range []string{
		"core.fetches", "core.evictions", "core.dirty_evictions",
		"core.evict.flushes", "core.evict.lines_shipped", "core.evict.payload_bytes", "core.evict.wire_bytes",
		"core.fpga.fmem_hits", "core.fpga.line_fills",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0 after dirty evictions, a refetch and a hit", name)
		}
	}
	for _, k := range ks {
		k.PublishTelemetry()
	}
	if again := reg.Snapshot(); !reflect.DeepEqual(again.Counters, snap.Counters) || !reflect.DeepEqual(again.Gauges, snap.Gauges) {
		t.Error("publishing unchanged counts moved the registry")
	}

	// Runtime i dirties dirty[i] of its resident pages and Syncs; then
	// runtime 0 Syncs again with nothing dirty.
	dirty := [2]int{3, 5}
	line := make([]byte, mem.CacheLineSize)
	syncGauges := func(when string, flushed int64) {
		t.Helper()
		g := reg.Snapshot().Gauges
		if got := g["core.sync.flushed_pages"]; got != flushed {
			t.Errorf("%s: core.sync.flushed_pages = %d, want %d", when, got, flushed)
		}
		if got, want := g["core.evict.pending_pages"], ks[0].evict.pubPending+ks[1].evict.pubPending; got != want || got != flushed {
			t.Errorf("%s: core.evict.pending_pages = %d, the runtimes' latest backlogs sum to %d, want %d", when, got, want, flushed)
		}
		if got, want := g["core.sync.retained_pages"], int64(ks[0].fpga.Occupancy()+ks[1].fpga.Occupancy()); got != want {
			t.Errorf("%s: core.sync.retained_pages = %d, the runtimes retain %d", when, got, want)
		}
	}
	for i, k := range ks {
		pages := 48 + 16*i
		for p := pages - dirty[i]; p < pages; p++ {
			var err error
			if nows[i], err = k.Write(nows[i], addrs[i]+mem.Addr(p*mem.PageSize), line); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if nows[i], err = k.Sync(nows[i]); err != nil {
			t.Fatal(err)
		}
	}
	syncGauges("after both Sync dirty pages", int64(dirty[0]+dirty[1]))
	if _, err := ks[0].Sync(nows[0]); err != nil {
		t.Fatal(err)
	}
	syncGauges("after runtime 0 Syncs clean", int64(dirty[1]))
}
