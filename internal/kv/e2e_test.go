package kv

import (
	"net"
	"os"
	"testing"
	"time"

	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// End-to-end tests: kona-kvd's full stack — text protocol over TCP, the
// store, the Kona runtime, and real memory-node daemons on loopback
// sockets — driven by the open-loop load engine. `make kv-bench` and
// `make kv-soak` run these with CI-grade budgets.

// kvTransport is the wire policy for the e2e runs: fast deadlines, deep
// retries, so a killed node stalls requests instead of failing the run.
func kvTransport() cluster.Transport {
	return cluster.Transport{
		DialTimeout:    time.Second,
		RequestTimeout: 2 * time.Second,
		MaxRetries:     10,
		BackoffBase:    500 * time.Microsecond,
		BackoffMax:     10 * time.Millisecond,
		Seed:           97,
	}
}

// kvRig is a full service stack on loopback TCP: controller daemon, n
// memory-node daemons, a kvd server backed by a TCP-attached runtime.
type kvRig struct {
	ctrl     *cluster.Controller
	cs       *cluster.ControllerServer
	nodes    []*cluster.MemoryNodeServer
	rt       *core.Kona
	store    *Store
	server   *Server
	addr     string
	reg      *telemetry.Registry
	serveErr chan error
}

func newKVRig(t *testing.T, nodes int, cacheBytes uint64, replicas int) *kvRig {
	t.Helper()
	r := &kvRig{ctrl: cluster.NewController(), reg: telemetry.New(0), serveErr: make(chan error, 1)}
	cs, err := cluster.ServeController(r.ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.cs = cs
	t.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	defer cc.Close()
	for i := 0; i < nodes; i++ {
		ns, err := cluster.ServeMemoryNode(cluster.NewMemoryNode(i, 256<<20), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(i, 256<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, ns)
	}

	cfg := core.DefaultConfig(cacheBytes)
	cfg.Replicas = replicas
	cfg.Metrics = r.reg
	r.rt = core.NewKonaTCPWith(cfg, cs.Addr(), kvTransport())
	r.store = NewStore(r.rt, Config{Shards: 16, Metrics: r.reg})
	r.server = NewServer(r.store, r.reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = l.Addr().String()
	go func() { r.serveErr <- r.server.Serve(l) }()
	t.Cleanup(func() {
		r.server.Close()
		if err := <-r.serveErr; err != nil {
			t.Errorf("kvd serve: %v", err)
		}
	})
	return r
}

// TestKVBenchSLO is the `make kv-bench` run: a fixed-seed open-loop
// zipfian mix against the full TCP stack, asserting the SLO holds, the
// verify pass finds every acknowledged write intact, and — the point of
// the exercise — the values actually lived in disaggregated memory
// (nonzero fetch/evict traffic), not in a local map.
func TestKVBenchSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e bench skipped in -short")
	}
	// Cache far below the working set so the hot set fights for local
	// memory and the remote path carries real traffic.
	rig := newKVRig(t, 2, 2<<20, 1)
	stopSync := make(chan struct{})
	defer close(stopSync)
	go rig.server.RunSyncLoop(20*time.Millisecond, stopSync, nil)

	// Under -race the serve path runs several-fold slower and the open
	// loop honestly reports the resulting queueing as latency; keep the
	// correctness asserts but lower the offered rate and drop the SLO
	// bar (it is enforced by the race-free `make kv-bench`).
	rate := 20_000.0
	if raceEnabled {
		rate = 5_000
	}
	eng, err := NewEngine(LoadConfig{
		Workload: WorkloadConfig{
			Keys:         200_000,
			ZipfS:        1.1,
			ReadFraction: 0.8,
			RatePerSec:   rate,
			Seed:         1,
		},
		Conns:   8,
		Ops:     40_000,
		SLOp99:  250 * time.Millisecond,
		SLOp999: time.Second,
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bench: %d/%d completed in %s, %d errors, get p50=%s p99=%s, set p50=%s p99=%s, all p50=%s p99=%s p999=%s",
		res.Completed, res.Issued, res.Wall.Round(time.Millisecond), res.Errors,
		res.Get.P50, res.Get.P99, res.Set.P50, res.Set.P99, res.All.P50, res.All.P99, res.All.P999)
	if res.All.Count != res.Completed || res.Get.Count+res.Set.Count != res.Completed {
		t.Errorf("latency counts: all %d, get %d + set %d; want %d completions each way",
			res.All.Count, res.Get.Count, res.Set.Count, res.Completed)
	}

	if res.Errors != 0 {
		t.Errorf("%d errors on a healthy rack", res.Errors)
	}
	if res.Completed != res.Issued || res.Completed != 40_000 {
		t.Errorf("completed %d/%d, want all 40000", res.Completed, res.Issued)
	}
	if res.SLOViolated && !raceEnabled {
		t.Errorf("SLO violated: p99=%s p999=%s", res.All.P99, res.All.P999)
	}
	if res.VerifiedKeys == 0 {
		t.Fatal("verify checked nothing")
	}
	if res.Missing+res.Torn+res.Stale != 0 {
		t.Errorf("verify: %d missing, %d torn, %d stale", res.Missing, res.Torn, res.Stale)
	}

	// The remote path must have carried the values: page fetches from
	// the memory nodes and evictions out of the local cache.
	snap := rig.reg.Snapshot()
	if snap.Counters["core.fetches"] == 0 {
		t.Error("core.fetches = 0 — values never came back from the memory nodes")
	}
	if snap.Counters["core.evictions"] == 0 {
		t.Error("core.evictions = 0 — working set never left local memory")
	}
	if est := rig.rt.EvictStats(); est.PagesEvicted == 0 {
		t.Error("no pages evicted — cache never pressured")
	}
}

// TestKVSoak is the `make kv-soak` run: a longer mixed workload under
// -race. The duration comes from KONA_KV_SOAK (e.g. "30s"); unset, a
// short smoke keeps plain `go test ./...` fast.
func TestKVSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	horizon := 2 * time.Second
	if env := os.Getenv("KONA_KV_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("KONA_KV_SOAK=%q: %v", env, err)
		}
		horizon = d
	}
	rig := newKVRig(t, 3, 4*mem.PageSize*64, 2)
	stopSync := make(chan struct{})
	defer close(stopSync)
	go rig.server.RunSyncLoop(20*time.Millisecond, stopSync, nil)

	eng, err := NewEngine(LoadConfig{
		Workload: WorkloadConfig{
			Keys:         100_000,
			ZipfS:        1.2,
			ReadFraction: 0.7,
			RatePerSec:   8_000,
			Seed:         3,
		},
		Conns:    6,
		Duration: horizon,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak %s: %d completed, %d errors, all p99=%s", horizon, res.Completed, res.Errors, res.All.P99)
	if res.Errors != 0 {
		t.Errorf("%d errors on a healthy rack", res.Errors)
	}
	if res.Missing+res.Torn+res.Stale != 0 {
		t.Errorf("verify: %d missing, %d torn, %d stale", res.Missing, res.Torn, res.Stale)
	}
	if st := rig.store.Stats(); st.Corrupt != 0 {
		t.Errorf("%d corrupt records after soak", st.Corrupt)
	}
}
