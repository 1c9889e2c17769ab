package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"kona/internal/cllog"
	"kona/internal/cluster"
	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// telemetryRig is tcpRig with one registry shared by every layer: the
// controller daemon, the memory-node daemons, and (via the caller) the
// client transport and the runtime itself — the deployment shape the
// -metrics-addr daemons produce.
func telemetryRig(t *testing.T, reg *telemetry.Registry, n int) string {
	t.Helper()
	ctrl := cluster.NewController()
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := cluster.ServeControllerOnWith(ctrl, cl, reg)
	t.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	for i := 0; i < n; i++ {
		nl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ns := cluster.ServeMemoryNodeOnWith(cluster.NewMemoryNode(i, 64<<20), nl, reg)
		t.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(i, 64<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return cs.Addr()
}

// TestLogBytesPerDirtyLine is the cache-line log's byte guard (DESIGN.md
// §8): a page with one dirty line ships that line behind a 5-byte entry
// header, once per replica, and each write-log adds one 4-byte
// terminator — counted at the memnodes over TCP, never timed. With the
// 10-byte offset/length headers and 8-byte terminators it replaced, the
// same 1 000 pages at R=2 cost 10 000 bytes more plus 4 per log.
func TestLogBytesPerDirtyLine(t *testing.T) {
	const pages, replicas = 1000, 2
	const perLine = mem.CacheLineSize + 5 // one line and its entry header
	if cllog.EntrySize(mem.CacheLineSize) != perLine {
		t.Fatalf("a one-line entry packs to %d bytes, want %d", cllog.EntrySize(mem.CacheLineSize), perLine)
	}
	reg := telemetry.New(0)
	addr := telemetryRig(t, reg, replicas)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 2 * pages * mem.PageSize // nothing evicts before the Sync
	cfg.Replicas = replicas
	k := NewKonaTCPWith(cfg, addr, cluster.DefaultTransport())
	base, err := k.MallocFresh(pages * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{0x5A}, mem.CacheLineSize)
	var now simDurT
	for p := mem.Addr(0); p < pages; p++ {
		if now, err = k.Write(now, base+p*mem.PageSize+2*mem.CacheLineSize, line); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
	}
	if _, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	logs, entries, got := c["cluster.memnode.served.write-log"], c["cluster.memnode.log_entries"], c["cluster.memnode.log_bytes"]
	if entries != replicas*pages || logs == 0 {
		t.Fatalf("memnodes applied %d entries in %d write-logs, want %d entries", entries, logs, replicas*pages)
	}
	if want := uint64(replicas*pages*perLine) + logs*cllog.TerminatorSize; got != want {
		t.Errorf("memnodes received %d log bytes for %d one-line pages at R=%d in %d write-logs, want %d",
			got, pages, replicas, logs, want)
	}
}

// TestTelemetryEndToEndTCP is the observability acceptance test: a Kona
// runtime runs an eviction-heavy workload over real sockets with one
// telemetry registry spanning runtime, transport and daemons; the
// registry is then scraped over HTTP (/metrics text + JSON,
// /debug/events) and the scraped counters are cross-checked against the
// components' own stats.
func TestTelemetryEndToEndTCP(t *testing.T) {
	reg := telemetry.New(0)
	addr := telemetryRig(t, reg, 2)

	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize // tiny cache: the 64-page walk must evict
	cfg.Metrics = reg
	tr := cluster.DefaultTransport()
	tr.Metrics = reg
	k := NewKonaTCPWith(cfg, addr, tr)

	base, err := k.Malloc(64 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 64)
	var now simDurT
	for p := mem.Addr(0); p < 64; p++ {
		if now, err = k.Write(now, base+p*mem.PageSize+128, payload); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
	}
	for p := mem.Addr(0); p < 64; p++ {
		buf := make([]byte, len(payload))
		if now, err = k.Read(now, base+p*mem.PageSize+128, buf); err != nil {
			t.Fatalf("read page %d: %v", p, err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatalf("page %d diverged", p)
		}
	}
	if _, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}

	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// JSON endpoint round-trips into a Snapshot.
	var snap telemetry.Snapshot
	if err := json.Unmarshal(get("/metrics?format=json"), &snap); err != nil {
		t.Fatalf("/metrics?format=json: %v", err)
	}

	// The workload must have exercised the whole path: remote fetches,
	// evictions, cache-line writebacks, RPC traffic.
	fetches := snap.Counters["core.fetches"]
	if fetches == 0 {
		t.Fatalf("core.fetches = 0 after a 64-page walk through an 8-page cache")
	}
	st := k.FPGAStats()
	if fetches != st.RemoteFetches {
		t.Errorf("core.fetches = %d, FPGA counted %d", fetches, st.RemoteFetches)
	}
	// The fetch-cause split is published whole: every cause as the FPGA
	// counted it, and the causes sum to the total.
	var causes uint64
	for c := fpga.FetchCause(0); c < fpga.NumFetchCauses; c++ {
		got := snap.Counters["core.fpga.fetches."+c.String()]
		if got != st.Fetches[c] {
			t.Errorf("core.fpga.fetches.%s = %d, FPGA counted %d", c, got, st.Fetches[c])
		}
		causes += got
	}
	if causes != fetches {
		t.Errorf("core.fpga.fetches.{read,rfo,prefetch} sum to %d, core.fetches = %d", causes, fetches)
	}
	if snap.Counters["core.evictions"] == 0 {
		t.Errorf("core.evictions = 0, want eviction pressure")
	}
	es := k.EvictStats()
	if got := snap.Counters["core.evict.lines_shipped"]; got != es.LinesShipped {
		t.Errorf("core.evict.lines_shipped = %d, evictor counted %d", got, es.LinesShipped)
	}
	// Every shipped log entry lands at some daemon receiver; the daemons
	// aggregate into one shared counter.
	if got := snap.Counters["cluster.memnode.log_entries"]; got != es.LinesShipped {
		t.Errorf("daemons applied %d log entries, evictor shipped %d", got, es.LinesShipped)
	}
	if h := snap.Histograms["cluster.rpc.read.latency_us"]; h.Count == 0 {
		t.Errorf("no read RPC latency observations")
	}
	if snap.Counters["cluster.rpc.failures"] != 0 {
		t.Errorf("clean localhost run recorded RPC failures")
	}
	if snap.Gauges["cluster.controller.nodes"] != 2 {
		t.Errorf("controller gauge = %d nodes, want 2", snap.Gauges["cluster.controller.nodes"])
	}

	// Text endpoint renders the same counters (nothing runs between the
	// two scrapes, so values are identical).
	text := string(get("/metrics"))
	for _, want := range []string{
		fmt.Sprintf("core.fetches %d", fetches),
		fmt.Sprintf("core.evict.lines_shipped %d", es.LinesShipped),
		// The closing Sync found only clean pages (the read pass evicted
		// every dirty one) and kept them all.
		"core.sync.flushed_pages 0",
		fmt.Sprintf("core.sync.retained_pages %d", k.fpga.Occupancy()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics text missing %q", want)
		}
	}

	// The event ring saw the annotated milestones.
	var events []telemetry.Event
	if err := json.Unmarshal(get("/debug/events"), &events); err != nil {
		t.Fatalf("/debug/events: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range events {
		seen[e.Name] = true
	}
	for _, want := range []string{"core.fetch", "core.evict.flush", "memnode.writeback", "controller.register"} {
		if !seen[want] {
			t.Errorf("/debug/events missing %q events (have %v)", want, seen)
		}
	}
}
