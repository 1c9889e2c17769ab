package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"kona"
	"kona/internal/kv"
	"kona/internal/telemetry"
)

// TestMetricsScrapeIsCurrent: a /metrics scrape publishes the runtime's
// private counters first, so after dirty evictions and no Sync it shows
// the eviction arenas' bytes and the FPGA's fetch counts as they are, not
// as the last Sync left them.
func TestMetricsScrapeIsCurrent(t *testing.T) {
	reg := telemetry.New(0)
	cfg := kona.DefaultConfig(1 << 20)
	cfg.Metrics = reg
	rt := kona.New(cfg, kona.NewCluster(2, 64<<20))
	store := kv.NewStore(rt, kv.Config{Shards: 4, Metrics: reg})
	value := bytes.Repeat([]byte{0x42}, 1000)
	for i := 0; i < 4000; i++ {
		if _, err := store.Set(0, fmt.Sprintf("key-%05d", i), value, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i += 7 {
		if _, _, _, ok, err := store.Get(0, fmt.Sprintf("key-%05d", i), nil); err != nil || !ok {
			t.Fatalf("get %d: ok=%t err=%v", i, ok, err)
		}
	}
	if st := rt.EvictStats(); st.DirtyPages == 0 {
		t.Fatalf("no dirty evictions: %+v", st)
	}

	rec := httptest.NewRecorder()
	metricsHandler(reg, rt).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := map[string]uint64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), " "); ok {
			if n, err := strconv.ParseUint(v, 10, 64); err == nil {
				got[name] = n
			}
		}
	}
	fetches := rt.FPGAStats().RemoteFetches
	byCause := got["core.fpga.fetches.read"] + got["core.fpga.fetches.rfo"] + got["core.fpga.fetches.prefetch"]
	t.Logf("scrape: core.evict.arena_bytes %d, core.fetches %d, by cause %d; FPGA remote fetches %d",
		got["core.evict.arena_bytes"], got["core.fetches"], byCause, fetches)
	if got["core.evict.arena_bytes"] == 0 {
		t.Error("core.evict.arena_bytes is 0 after dirty evictions")
	}
	if fetches == 0 || got["core.fetches"] != fetches || byCause != fetches {
		t.Errorf("core.fetches %d and its causes %d, want the FPGA's %d remote fetches", got["core.fetches"], byCause, fetches)
	}
}
