package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"kona/internal/mem"
	"kona/internal/telemetry"
)

func TestReplicationSurvivesPrimaryFailure(t *testing.T) {
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.Replicas = 2
	cfg.LocalCacheBytes = 16 * mem.PageSize
	k := NewKona(cfg, ctrl)

	addr, err := k.Malloc(64 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xEE}, 256)
	if _, err := k.Write(0, addr+4096, payload); err != nil {
		t.Fatal(err)
	}
	// Sync ships the dirty lines to BOTH replicas.
	if _, err := k.Sync(0); err != nil {
		t.Fatal(err)
	}

	// Identify and fail the primary node.
	pls, err := k.rm.placementsFor(addr + 4096)
	if err != nil {
		t.Fatal(err)
	}
	primary, ok := ctrl.Node(pls[0].link.id())
	if !ok {
		t.Fatal("primary node not found")
	}
	primary.Fail()

	// Drop the cached copy and read again: served by the replica.
	coldCache(k)
	buf := make([]byte, 256)
	if _, err := k.Read(0, addr+4096, buf); err != nil {
		t.Fatalf("read after primary failure: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("replica served stale data")
	}
	if k.FailureStats().Failovers == 0 {
		t.Errorf("failover not recorded")
	}
}

func TestUnreplicatedFailureIsAnError(t *testing.T) {
	ctrl := newCluster(1)
	k := NewKona(smallConfig(), ctrl)
	addr, err := k.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := ctrl.Node(0)
	n.Fail()
	coldCache(k)
	if _, err := k.Read(0, addr, make([]byte, 8)); err == nil {
		t.Fatalf("read from failed unreplicated node succeeded")
	}
}

func TestEvictionFansOutToAllReplicas(t *testing.T) {
	ctrl := newCluster(2)
	cfg := smallConfig()
	cfg.Replicas = 2
	k := NewKona(cfg, ctrl)
	addr, err := k.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x77}, 64)
	if _, err := k.Write(0, addr, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sync(0); err != nil {
		t.Fatal(err)
	}
	// Both nodes' log receivers must have applied one entry.
	for id := 0; id < 2; id++ {
		n, _ := ctrl.Node(id)
		logs, lines := n.ReceiverStats()
		if logs == 0 || lines == 0 {
			t.Errorf("node %d received no log (replication broken)", id)
		}
	}
}

func TestMCEDetectionOnSlowNetwork(t *testing.T) {
	ctrl := newCluster(1)
	k := NewKona(smallConfig(), ctrl)
	addr, err := k.Malloc(16 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy fetch: no MCE.
	if _, err := k.ReadChecked(0, addr, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if k.FailureStats().MCEs != 0 {
		t.Fatalf("MCE on healthy fetch")
	}
	// Inject a 200µs network delay: the next cold fetch trips the MCE
	// detector but the runtime survives and returns the data.
	if err := k.InjectNetworkDelay(0, 200*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	done, err := k.ReadChecked(0, addr+8*mem.PageSize, buf)
	if err != nil {
		t.Fatalf("slow fetch failed hard: %v", err)
	}
	if k.FailureStats().MCEs != 1 {
		t.Errorf("MCEs = %d, want 1", k.FailureStats().MCEs)
	}
	// Clearing the delay stops new MCEs (issue the next fetch after the
	// backlog has drained).
	if err := k.InjectNetworkDelay(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadChecked(done, addr+9*mem.PageSize, buf); err != nil {
		t.Fatal(err)
	}
	if k.FailureStats().MCEs != 1 {
		t.Errorf("MCE count moved on healthy fetch: %d", k.FailureStats().MCEs)
	}
}

func TestFig11cShapeCopyDominates(t *testing.T) {
	// The eviction-path breakdown must match Fig 11c's shape: Copy is the
	// largest slice; RDMA write and Bitmap are meaningful minorities; Ack
	// wait is small.
	cfg := smallConfig()
	cfg.LocalCacheBytes = 32 * mem.PageSize
	cfg.FlushThreshold = 32 << 10
	k := NewKona(cfg, newCluster(1))
	addr, err := k.Malloc(512 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	now := simDur(0)
	buf := make([]byte, 8*64) // 8 contiguous dirty lines per page
	for p := 0; p < 512; p++ {
		now, err = k.Write(now, addr+mem.Addr(p*mem.PageSize), buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Sync(now); err != nil {
		t.Fatal(err)
	}
	b := k.EvictBreakdown()
	total := b.Total()
	if total <= 0 {
		t.Fatal("empty breakdown")
	}
	frac := func(d simDurT) float64 { return float64(d) / float64(total) }
	if frac(b.Copy) < 0.35 {
		t.Errorf("Copy fraction %.2f, want dominant (Fig 11c)", frac(b.Copy))
	}
	if frac(b.RDMAWrite) < 0.05 || frac(b.RDMAWrite) > 0.45 {
		t.Errorf("RDMA fraction %.2f outside Fig 11c band", frac(b.RDMAWrite))
	}
	if frac(b.AckWait) > 0.25 {
		t.Errorf("Ack wait fraction %.2f should be small", frac(b.AckWait))
	}
	t.Logf("breakdown: bitmap %.2f copy %.2f rdma %.2f ack %.2f",
		frac(b.Bitmap), frac(b.Copy), frac(b.RDMAWrite), frac(b.AckWait))
}

func TestOutageRecoveryRetry(t *testing.T) {
	// §4.5 option (ii): a failed fetch surfaces a recoverable condition;
	// once the outage resolves, the same access succeeds.
	ctrl := newCluster(1)
	k := NewKona(smallConfig(), ctrl)
	addr, err := k.Malloc(16 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives the outage")
	if _, err := k.Write(0, addr, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sync(0); err != nil {
		t.Fatal(err)
	}
	coldCache(k)

	node, _ := ctrl.Node(0)
	node.Fail()
	buf := make([]byte, len(payload))
	_, err = k.Read(0, addr, buf)
	if !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("outage error = %v, want ErrRemoteUnavailable", err)
	}

	node.Recover()
	if _, err := k.Read(0, addr, buf); err != nil {
		t.Fatalf("retry after recovery failed: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("data lost across outage: %q", buf)
	}
}

// TestCountsConcurrentWithReadChecked reads FailureStats and publishes
// while ReadChecked counts machine checks from two goroutines: each
// FailureStats call builds its own value, every slow fetch is counted
// once, and the publishes together add each fetch once.
func TestCountsConcurrentWithReadChecked(t *testing.T) {
	const perG = 50
	cfg := smallConfig()
	cfg.Metrics = telemetry.New(0)
	k := NewKona(cfg, newCluster(1))
	addr, err := k.Malloc(2 * perG * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.InjectNetworkDelay(0, 2*MCETimeout); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < perG; i++ {
				if _, err := k.ReadChecked(0, addr+mem.Addr((g*perG+i)*mem.PageSize), buf); err != nil {
					t.Error(err)
					return
				}
				_ = k.FailureStats()
				k.PublishTelemetry()
			}
		}(g)
	}
	wg.Wait()
	if n := k.FailureStats().MCEs; n != 2*perG {
		t.Errorf("MCEs = %d, want %d", n, 2*perG)
	}
	k.PublishTelemetry()
	if got, want := cfg.Metrics.Snapshot().Counters["core.fetches"], k.FPGAStats().RemoteFetches; got != want || want != 2*perG {
		t.Errorf("core.fetches = %d, RemoteFetches %d; want %d each", got, want, 2*perG)
	}
}
