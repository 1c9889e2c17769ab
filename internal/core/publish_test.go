package core

import (
	"reflect"
	"strings"
	"testing"

	"kona/internal/mem"
	"kona/internal/telemetry"
)

// TestPublishedCountsSumAcrossRuntimes shares one registry between two
// runtimes that both evict dirty pages, refetch and Sync. Each published
// counter then holds the sum of the two runtimes' own counts, the arena
// gauge the sum of their held bytes, and a further publish adds nothing.
func TestPublishedCountsSumAcrossRuntimes(t *testing.T) {
	reg := telemetry.New(0)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 16 * mem.PageSize
	cfg.Metrics = reg
	ctrl := newCluster(1)
	var ks [2]*Kona
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
		if _, err := k.Sync(now); err != nil {
			t.Fatal(err)
		}
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
}
