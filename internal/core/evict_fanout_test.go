package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"kona/internal/cllog"
	"kona/internal/cluster"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// TestPayloadArena pins the arena contract: copied payloads stay stable
// across later copyIns (including chunk switches); a chunk stays held
// while any entry's charge remains; once its entries are released a
// retired chunk goes on the free list — up to arenaFreeChunks, the rest
// back to the GC — and is reused before a new chunk is made.
func TestPayloadArena(t *testing.T) {
	sh := &evictShard{}
	sh.arena = payloadArena{sh: sh, size: mem.PageSize}
	a := &sh.arena
	// 3 pages' worth of 257-byte payloads fill four chunks, each copy
	// backing one entry per replica.
	var first, second entryList
	var want [][]byte
	for i := 0; i < 3*int(mem.PageSize)/257; i++ {
		src := bytes.Repeat([]byte{byte(i + 1)}, 257)
		p, c := a.copyIn(src, 2)
		first.add(cllog.Entry{Data: p}, c)
		second.add(cllog.Entry{Data: p}, c)
		want = append(want, src)
	}
	for i, w := range want {
		if !bytes.Equal(first.entries[i].Data, w) {
			t.Fatalf("payload %d corrupted after later copyIns", i)
		}
	}
	if a.held != 4 || len(a.free) != 0 || len(first.runs) != 4 {
		t.Fatalf("held %d chunks, %d free, %d runs; want 4 held, none free, 4 runs", a.held, len(a.free), len(first.runs))
	}
	// One replica's entries shipped: every chunk is still aliased.
	first.release()
	if a.held != 4 || len(a.free) != 0 {
		t.Fatalf("after half the charges: held %d, %d free; want 4, 0", a.held, len(a.free))
	}
	for i, w := range want {
		if !bytes.Equal(second.entries[i].Data, w) {
			t.Fatalf("payload %d recycled while an entry still aliased it", i)
		}
	}
	// The other replica's too: the three retired chunks free up — two onto
	// the free list, one back to the GC — and the active one stays.
	entries := second.entries
	second.release()
	if a.held != 3 || len(a.free) != arenaFreeChunks {
		t.Fatalf("after every charge: held %d, %d free; want 3, %d", a.held, len(a.free), arenaFreeChunks)
	}
	if len(second.entries) != 0 || entries[0].Data != nil {
		t.Fatal("released entries still pin their chunk")
	}
	// The next three chunks' worth rewinds the active chunk and reuses
	// the free ones.
	for _, w := range want[:3*(int(mem.PageSize)/257)] {
		a.copyIn(w, 1)
	}
	if a.held != 3 || len(a.free) != 0 {
		t.Fatalf("next cycle: held %d, %d free; want 3 reused, 0 free", a.held, len(a.free))
	}
}

// TestMoveEntriesKeepsChunkRuns pins moveEntries on the chunk runs: the
// entries a move takes carry their chunk to the destination list, the
// ones it leaves keep theirs, order is kept on both sides, and each
// list's runs still cover exactly its entries.
func TestMoveEntriesKeepsChunkRuns(t *testing.T) {
	c1, c2 := &arenaChunk{buf: []byte{1}}, &arenaChunk{buf: []byte{2}}
	var src, dst entryList
	// Offsets 0..9 in pairs from alternating chunks; the move takes [2, 7).
	for off := 0; off < 10; off++ {
		c := []*arenaChunk{c1, c2}[off/2%2]
		src.add(cllog.Entry{RemoteOff: uint64(off), Data: c.buf}, c)
	}
	mv := replicaMove{from: extent{off: 2}, size: 5, settles: &member{Slab: Slab{RemoteOff: 100}}}
	bytesMoved := 0
	if n := moveEntries(&src, &dst, mv, func(n int) { bytesMoved += n }); n != 5 || bytesMoved != 5*cllog.EntrySize(1) {
		t.Fatalf("moved %d entries / %d bytes, want 5 / %d", n, bytesMoved, 5*cllog.EntrySize(1))
	}
	check := func(name string, l *entryList, offs []uint64) {
		i := 0
		for _, r := range l.runs {
			for j := 0; j < r.n; j++ {
				if i >= len(l.entries) || l.entries[i].Data[0] != r.c.buf[0] {
					t.Fatalf("%s: entry %d is not covered by the run of its chunk", name, i)
				}
				i++
			}
		}
		if i != len(l.entries) || len(l.entries) != len(offs) {
			t.Fatalf("%s: runs cover %d of %d entries, want %d", name, i, len(l.entries), len(offs))
		}
		for k, off := range offs {
			if l.entries[k].RemoteOff != off {
				t.Fatalf("%s: entry %d at %d, want %d", name, k, l.entries[k].RemoteOff, off)
			}
		}
	}
	check("kept", &src, []uint64{0, 1, 7, 8, 9})
	check("moved", &dst, []uint64{100, 101, 102, 103, 104})
}

// TestEvictArenaBoundedAcrossDestinations is the guard for per-chunk
// arena release (DESIGN.md §8). Pages live on two memnodes and nothing
// Syncs or refetches, so only threshold cycles run: each ships the
// destination past the threshold while the other keeps a partial batch;
// the two fill at different rates (3 KB and 1 KB per eviction), so no
// moment ever finds every batch empty. The arena must still hold at most
// four chunks (the active one, one the other destination's entries pin,
// two free). Recycled only when every batch was empty at once, it held
// 16 chunks (4 MB) by the end.
func TestEvictArenaBoundedAcrossDestinations(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.Shards = 1 // the bound is per shard
	reg := telemetry.New(0)
	cfg.Metrics = reg
	k := NewKona(cfg, newCluster(2))
	var bases [2]mem.Addr
	for i := range bases {
		base, err := k.Malloc(cfg.SlabSize)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = base
	}
	if a, b := groupMembersFor(k, bases[0])[0].Node, groupMembersFor(k, bases[1])[0].Node; a == b {
		t.Fatalf("both slabs on node %d, want one per memnode", a)
	}
	pages := int(cfg.SlabSize / mem.PageSize)
	sizes := [2]int{3072, 1024}
	gauge := reg.Gauge("core.evict.arena_bytes")
	var now simDurT
	var err error
	peak := int64(0)
	for i := 0; i < 2*pages; i++ {
		addr := bases[i%2] + mem.Addr(i/2)*mem.PageSize
		if now, err = k.Write(now, addr, bytes.Repeat([]byte{byte(i + 1)}, sizes[i%2])); err != nil {
			t.Fatal(err)
		}
		k.PublishTelemetry()
		peak = max(peak, gauge.Value())
	}
	st := k.EvictStats()
	if st.DirtyPages < 2000 || st.Flushes == 0 {
		t.Fatalf("%d dirty evictions, %d flushes: the scenario never formed", st.DirtyPages, st.Flushes)
	}
	if limit := int64(4 * cfg.LogBytes); peak > limit {
		t.Fatalf("arena held %d bytes at peak, want <= %d (4 x LogBytes)", peak, limit)
	}
	t.Logf("%d dirty evictions, %d flushes, arena peak %d bytes", st.DirtyPages, st.Flushes, peak)
	if a := testing.AllocsPerRun(10, k.PublishTelemetry); a != 0 {
		t.Errorf("publishing the gauge allocated %.0f times", a)
	}
	// A chunk recycled while an entry still aliased it ships another
	// page's bytes.
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*pages; i++ {
		got := make([]byte, sizes[i%2])
		if now, err = k.Read(now, bases[i%2]+mem.Addr(i/2)*mem.PageSize, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, len(got))) {
			t.Fatalf("page %d of slab %d read back wrong bytes", i/2, i%2)
		}
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
