package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"kona/internal/cluster"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// TestPayloadArena pins the arena contract: copied payloads stay stable
// across later copyIns (including chunk spills), and a spilled cycle
// coalesces on reset so the next cycle fits one chunk.
func TestPayloadArena(t *testing.T) {
	a := newPayloadArena(0) // clamps to one page
	var got [][]byte
	var want [][]byte
	// 3 pages' worth of 257-byte payloads forces at least two spills.
	for i := 0; i < 3*int(mem.PageSize)/257; i++ {
		src := bytes.Repeat([]byte{byte(i + 1)}, 257)
		got = append(got, a.copyIn(src))
		want = append(want, src)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("payload %d corrupted after later copyIns", i)
		}
	}
	if len(a.old) == 0 {
		t.Fatalf("expected chunk spills, got none (cap=%d)", cap(a.buf))
	}
	a.reset()
	if len(a.old) != 0 || a.spill != 0 {
		t.Fatalf("reset did not coalesce: old=%d spill=%d", len(a.old), a.spill)
	}
	// The coalesced chunk must absorb the same cycle without spilling.
	for i := 0; i < 3*int(mem.PageSize)/257; i++ {
		a.copyIn(want[i])
	}
	if len(a.old) != 0 {
		t.Fatalf("coalesced arena spilled again: old=%d", len(a.old))
	}
}

// TestSimTransportForcesSerialFlush pins the determinism gate: the
// executor follows the transport — the simulated fabric ships inline (no
// in-flight semaphore exists), TCP ships pipelined behind evictInflight.
func TestSimTransportForcesSerialFlush(t *testing.T) {
	cfg := smallConfig()
	k := NewKona(cfg, newCluster(2))
	if k.evict.sem != nil {
		t.Fatal("sim transport got the pipelined executor, want inline")
	}
	addr, _ := tcpRig(t, 2)
	kt := NewKonaTCP(cfg, addr)
	if cap(kt.evict.sem) != evictInflight {
		t.Fatalf("tcp transport got in-flight bound %d, want %d", cap(kt.evict.sem), evictInflight)
	}
}

// TestRemoteEntriesMatchSegments pins the satellite that surfaced the
// receiver's unpacked-entry count: after a drain, the receivers must have
// applied exactly one entry per shipped segment (times replicas).
func TestRemoteEntriesMatchSegments(t *testing.T) {
	cfg := smallConfig()
	cfg.Replicas = 2
	reg := telemetry.New(0)
	cfg.Metrics = reg
	k := NewKona(cfg, newCluster(3))
	base, err := k.Malloc(16 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var now simDurT
	for i := 0; i < 16; i++ {
		if now, err = k.Write(now, base+mem.Addr(i)*mem.PageSize, []byte("dirty")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	st := k.EvictStats()
	if st.Segments == 0 {
		t.Fatal("no segments shipped")
	}
	if want := st.Segments * 2; st.RemoteEntries != want {
		t.Fatalf("RemoteEntries = %d, want %d (segments=%d x 2 replicas)",
			st.RemoteEntries, want, st.Segments)
	}
	if got := reg.Counter("core.evict.remote_entries").Value(); got != st.RemoteEntries {
		t.Fatalf("telemetry remote_entries = %d, want %d", got, st.RemoteEntries)
	}
}

// TestHealthyTTLCachesPing pins the health-cache satellite: repeated
// healthy() calls within the TTL must cost one Ping RPC, and noteFailure
// must force a fresh probe.
func TestHealthyTTLCachesPing(t *testing.T) {
	node := cluster.NewMemoryNode(0, 1<<20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New(0)
	ns := cluster.ServeMemoryNodeOnWith(node, ln, reg)
	defer ns.Close()

	l := &tcpLink{nodeID: 0, client: cluster.DialMemoryNode(ns.Addr())}
	for i := 0; i < 50; i++ {
		if !l.healthy() {
			t.Fatalf("healthy() false on call %d", i)
		}
	}
	pings := reg.Counter("cluster.memnode.served.ping").Value()
	if pings != 1 {
		t.Fatalf("50 healthy() calls cost %d pings, want 1", pings)
	}
	l.noteFailure()
	if !l.healthy() {
		t.Fatal("healthy() false after noteFailure against live node")
	}
	if pings = reg.Counter("cluster.memnode.served.ping").Value(); pings != 2 {
		t.Fatalf("noteFailure did not force a fresh probe: %d pings, want 2", pings)
	}
}

// TestHealthyConcurrent is the race-regression test for the health
// cache: the verdict and its timestamp are one packed atomic word, so
// concurrent healthy() probes and noteFailure() invalidations from
// fan-out goroutines must never tear (a stale-verdict/fresh-timestamp
// mix would suppress the re-probe after a failure). Run under -race; the
// functional assertion is that a live node always ends up healthy.
func TestHealthyConcurrent(t *testing.T) {
	node := cluster.NewMemoryNode(0, 1<<20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns := cluster.ServeMemoryNodeOnWith(node, ln, telemetry.New(0))
	defer ns.Close()

	l := &tcpLink{nodeID: 0, client: cluster.DialMemoryNode(ns.Addr())}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g == 0 && i%20 == 19 {
					l.noteFailure()
					continue
				}
				l.healthy()
			}
		}(g)
	}
	wg.Wait()
	if !l.healthy() {
		t.Fatal("healthy() false against a live node after concurrent churn")
	}
}

// TestFanoutChurnReplicated is the write-before-read ordering check under
// the concurrent fan-out: a replicated TCP runtime with a tiny cache
// churns random reads and writes, every eviction shipping to two nodes in
// parallel, and every read must still observe the latest write.
func TestFanoutChurnReplicated(t *testing.T) {
	addr, _ := tcpRig(t, 3)
	cfg := smallConfig()
	cfg.Replicas = 2
	cfg.LocalCacheBytes = 8 * mem.PageSize
	k := NewKonaTCP(cfg, addr)
	base, err := k.Malloc(64 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 64*mem.PageSize)
	rng := rand.New(rand.NewSource(41))
	var now simDurT
	for step := 0; step < 400; step++ {
		off := rng.Intn(len(model) - 256)
		n := 1 + rng.Intn(255)
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			if now, err = k.Write(now, base+mem.Addr(off), data); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			copy(model[off:], data)
		} else {
			buf := make([]byte, n)
			if now, err = k.Read(now, base+mem.Addr(off), buf); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !bytes.Equal(buf, model[off:off+n]) {
				t.Fatalf("step %d: fan-out read diverged at +%d", step, off)
			}
		}
	}
	if _, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	if st := k.EvictStats(); st.Flushes == 0 || st.RemoteEntries == 0 {
		t.Fatalf("churn shipped nothing: %+v", st)
	}
}

// TestFanoutChaosReplicaLogDrop is the chaos variant: one replica's
// daemon sits behind a fault listener that drops connections mid-I/O, so
// some of its log writes fail while the primary's succeed. Reads (served
// by the healthy primary) must never observe stale data, and the runtime
// must surface — not swallow — the replica's failures at Sync.
func TestFanoutChaosReplicaLogDrop(t *testing.T) {
	ctrl := cluster.NewController()
	cs, err := cluster.ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	// Round-robin placement on a fresh controller puts the first
	// replicated slab on nodes 0 (primary) and 1; the fault listener
	// goes on node 1 so only the replica's log writes are lossy.
	const faulted = 1
	for i := 0; i < 3; i++ {
		node := cluster.NewMemoryNode(i, 64<<20)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i == faulted {
			ln = net.Listener(cluster.NewFaultListener(ln, cluster.FaultConfig{Seed: 7, DropProb: 0.25}))
		}
		ns := cluster.ServeMemoryNodeOn(node, ln)
		t.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(i, 64<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	cfg := smallConfig()
	cfg.Replicas = 2
	cfg.LocalCacheBytes = 8 * mem.PageSize
	k := NewKonaTCPWith(cfg, cs.Addr(), chaosTr())
	base, err := k.Malloc(64 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := k.rm.alloc.SlabFor(base)
	if !ok {
		t.Fatal("no slab for base")
	}
	if primary := k.rm.replicas[s.ID].members[0].Node; primary == faulted {
		t.Skipf("placement changed: faulted node %d became primary", faulted)
	}

	model := make([]byte, 64*mem.PageSize)
	rng := rand.New(rand.NewSource(43))
	var now simDurT
	for step := 0; step < 300; step++ {
		off := rng.Intn(len(model) - 256)
		n := 1 + rng.Intn(255)
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			if now, err = k.Write(now, base+mem.Addr(off), data); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			copy(model[off:], data)
		} else {
			buf := make([]byte, n)
			if now, err = k.Read(now, base+mem.Addr(off), buf); err != nil {
				t.Fatalf("step %d: read under chaos: %v", step, err)
			}
			if !bytes.Equal(buf, model[off:off+n]) {
				t.Fatalf("step %d: stale read at +%d under replica log drops", step, off)
			}
		}
	}
	// Sync either drains cleanly (drops missed every log write) or
	// reports the replica's failure — it must not corrupt or hang.
	if _, err := k.Sync(now); err != nil {
		t.Logf("sync surfaced replica failure (expected under drops): %v", err)
	}
}

// TestReplicatedSimDeterminism extends the determinism contract to the
// replicated eviction workload: two fresh simulated runs of the same
// seed must agree on every counter and on final virtual time.
func TestReplicatedSimDeterminism(t *testing.T) {
	run := func() string {
		cfg := smallConfig()
		cfg.Replicas = 2
		cfg.LocalCacheBytes = 8 * mem.PageSize
		k := NewKona(cfg, newCluster(3))
		base, err := k.Malloc(64 * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		var now simDurT
		buf := make([]byte, 192)
		for step := 0; step < 500; step++ {
			off := rng.Intn(63 * int(mem.PageSize))
			if rng.Intn(2) == 0 {
				rng.Read(buf)
				now, err = k.Write(now, base+mem.Addr(off), buf)
			} else {
				now, err = k.Read(now, base+mem.Addr(off), buf)
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if now, err = k.Sync(now); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("t=%d stats=%+v breakdown=%+v", now, k.EvictStats(), k.EvictBreakdown())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replicated sim run diverged:\n%s\n%s", a, b)
	}
}
