package cluster

import (
	"net"
	"testing"
	"time"

	"kona/internal/telemetry"
)

// TestTransportTelemetryCleanPath checks the happy-path numbers: N reads
// over a healthy node produce N read-latency observations, zero retries,
// zero failures, and an in-flight gauge that returns to zero.
func TestTransportTelemetryCleanPath(t *testing.T) {
	reg := telemetry.New(0)
	node := NewMemoryNode(0, 1<<20)
	ns, err := ServeMemoryNode(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	tr := DefaultTransport()
	tr.Metrics = reg
	mc := DialMemoryNodeTransport(ns.Addr(), tr)
	defer mc.Close()

	const n = 25
	for i := 0; i < n; i++ {
		if _, err := readFrom(mc, 0, 64); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	if got := s.Histograms["cluster.rpc.read.latency_us"].Count; got != n {
		t.Errorf("read latency observations = %d, want %d", got, n)
	}
	if s.Counters["cluster.rpc.retries"] != 0 || s.Counters["cluster.rpc.failures"] != 0 {
		t.Errorf("clean path recorded retries/failures: %v", s.Counters)
	}
	if s.Counters["cluster.rpc.dials"] == 0 {
		t.Errorf("no dial recorded")
	}
	if got := s.Gauges["cluster.inflight."+ns.Addr()]; got != 0 {
		t.Errorf("in-flight gauge = %d after quiescence, want 0", got)
	}
}

// TestFaultPlanMatchesRetryCounters threads one registry through both
// sides of a seeded fault plan — the injecting listener and the retrying
// client — and checks the books balance: every injected drop surfaces as
// exactly one client-side retry or redial (up to the drops that hit
// connections parked in the idle pool at exit, which nobody observes).
// This turns the chaos suite's implicit "retries hid the faults" behavior
// into checked numbers.
func TestFaultPlanMatchesRetryCounters(t *testing.T) {
	reg := telemetry.New(0)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{
		Seed:     7,
		DropProb: 0.05,
		Metrics:  reg,
	})
	node := NewMemoryNode(0, 1<<20)
	ns := ServeMemoryNodeOn(node, fl)
	defer ns.Close()

	tr := Transport{
		RequestTimeout: 2 * time.Second,
		MaxRetries:     12,
		BackoffBase:    100 * time.Microsecond,
		BackoffMax:     2 * time.Millisecond,
		PoolSize:       2,
		Seed:           7,
		Metrics:        reg,
	}
	mc := DialMemoryNodeTransport(ns.Addr(), tr)
	defer mc.Close()

	payload := []byte("telemetry-chaos")
	for i := 0; i < 300; i++ {
		off := uint64(i % 64 * 64)
		if err := mc.WriteVec(off, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		data, err := readFrom(mc, off, len(payload))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(data) != string(payload) {
			t.Fatalf("read %d corrupted under faults", i)
		}
	}

	s := reg.Snapshot()
	drops := s.Counters["faultconn.drops"]
	retries := s.Counters["cluster.rpc.retries"]
	redials := s.Counters["cluster.rpc.redials"]
	if drops == 0 {
		t.Fatalf("seeded fault plan injected no drops — plan dead, test vacuous")
	}
	recovered := retries + redials
	// One injected drop fails at most one in-flight attempt, and with a
	// deep retry budget every failed attempt is retried or redialed, so
	// recovered <= drops, short only by drops that hit idle pooled
	// connections after the last request touched them.
	if recovered > drops {
		t.Errorf("recovered %d (retries %d + redials %d) > injected drops %d",
			recovered, retries, redials, drops)
	}
	if slack := uint64(tr.PoolSize + 1); recovered+slack < drops {
		t.Errorf("recovered %d (retries %d + redials %d) too low for %d injected drops",
			recovered, retries, redials, drops)
	}
	if s.Counters["cluster.rpc.failures"] != 0 {
		t.Errorf("requests failed outright despite retry budget: %v", s.Counters)
	}
	// The trace ring carries the retry annotations.
	sawRetry := false
	for _, e := range reg.Trace().Events() {
		if e.Name == "rpc.retry" {
			sawRetry = true
			break
		}
	}
	if retries > 0 && !sawRetry {
		t.Errorf("retries counted but no rpc.retry event in the ring")
	}
}

// TestServerTelemetryCounters checks the daemon-side served/error
// counters and the memnode volume counters.
func TestServerTelemetryCounters(t *testing.T) {
	reg := telemetry.New(0)
	ctrl := NewController()
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := ServeControllerOnWith(ctrl, cl, reg)
	defer cs.Close()

	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := NewMemoryNode(3, 1<<20)
	ns := ServeMemoryNodeOnWith(node, nl, reg)
	defer ns.Close()

	cc := DialController(cs.Addr())
	defer cc.Close()
	if err := cc.RegisterNode(3, 1<<20, ns.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := allocOne(cc, 4096); err != nil {
		t.Fatal(err)
	}
	mc := DialMemoryNode(ns.Addr())
	defer mc.Close()
	if err := mc.WriteVec(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrom(mc, 0, 256); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	for name, want := range map[string]uint64{
		"cluster.controller.served.register-node": 1,
		"cluster.controller.served.alloc-slab":    1,
		"cluster.memnode.served.write":            1,
		"cluster.memnode.served.read":             1,
		"cluster.memnode.write_bytes":             128,
		"cluster.memnode.read_bytes":              256,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauges["cluster.controller.nodes"]; got != 1 {
		t.Errorf("controller.nodes gauge = %d, want 1", got)
	}
	// An out-of-range read is served and counted as an error.
	if _, err := readFrom(mc, 1<<20, 64); err == nil {
		t.Fatalf("out-of-range read succeeded")
	}
	if got := reg.Snapshot().Counters["cluster.memnode.errors"]; got != 1 {
		t.Errorf("memnode.errors = %d, want 1", got)
	}
}

// TestReportLoadAllocatesLikePing: a report-load publishes its node's
// cluster.load.node.<id>.* metrics through handles cached at the node's
// first report, so handling one allocates no more than handling a ping
// (each builds its response and nothing else). Building the whole load map
// and formatting the six metric names cost 10 allocations per report.
func TestReportLoadAllocatesLikePing(t *testing.T) {
	reg := telemetry.New(0)
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := ServeControllerOnWith(NewController(), cl, reg)
	defer cs.Close()
	for node := 0; node < 4; node++ {
		cs.ctrl.ReportLoad(node, LoadSample{ReadOps: 1})
	}
	sample := LoadSample{ReadOps: 7, WriteOps: 3, ReadBytes: 7 << 12, WriteBytes: 3 << 6, PendingBytes: 4096}
	report := &Request{Kind: kindReportLoad, NodeID: 2, Data: appendLoadSample(nil, sample)}
	ping := &Request{Kind: kindPing}
	reportAllocs := testing.AllocsPerRun(200, func() { cs.handle(report) })
	pingAllocs := testing.AllocsPerRun(200, func() { cs.handle(ping) })
	if reportAllocs > pingAllocs {
		t.Errorf("report-load allocates %.1f per request, ping %.1f: want no more than ping", reportAllocs, pingAllocs)
	}
	s := reg.Snapshot()
	if got := s.Counters["cluster.load.node.2.read_bytes"]; got != sample.ReadBytes {
		t.Errorf("cluster.load.node.2.read_bytes = %d, want %d", got, sample.ReadBytes)
	}
	if got := s.Gauges["cluster.load.node.2.pending"]; got != int64(sample.PendingBytes) {
		t.Errorf("cluster.load.node.2.pending = %d, want %d", got, sample.PendingBytes)
	}
}

// BenchmarkTelemetryOverheadTCPRead pins the tentpole's hot-path budget
// on the wire layer: MemoryNodeClient.Read over the pooled transport with
// telemetry disabled (nil registry, the default) must stay within 2% of
// the uninstrumented baseline — the disabled path is one pointer check
// per round trip. The "enabled" case shows the real cost of live
// instrumentation for comparison. `make verify` runs the nil case as a
// regression guard.
func BenchmarkTelemetryOverheadTCPRead(b *testing.B) {
	run := func(b *testing.B, reg *telemetry.Registry) {
		node := NewMemoryNode(0, 1<<20)
		ns, err := ServeMemoryNode(node, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ns.Close()
		tr := DefaultTransport()
		tr.Metrics = reg
		mc := DialMemoryNodeTransport(ns.Addr(), tr)
		defer mc.Close()
		if _, err := readFrom(mc, 0, 4096); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := readFrom(mc, 0, 4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, telemetry.New(0)) })
}
