package core

import (
	"bytes"
	"net"
	"testing"
	"time"

	"kona/internal/cluster"
	"kona/internal/mem"
)

// Chaos tests: the §4.5 failure modes exercised end-to-end over real TCP
// sockets, with cluster.FaultListener injecting the network misbehavior
// and the transport's deadlines/retries (plus the runtime's replication
// and MCE paths) recovering from it.

// chaosTr is a fast-failing, deep-retry wire policy for these tests.
func chaosTr() cluster.Transport {
	return cluster.Transport{
		DialTimeout:    time.Second,
		RequestTimeout: 2 * time.Second,
		MaxRetries:     10,
		BackoffBase:    500 * time.Microsecond,
		BackoffMax:     10 * time.Millisecond,
		Seed:           31,
	}
}

// tcpChaosRig starts a controller and n memory-node daemons, optionally
// wrapping each node's listener in a fault injector, and returns the
// controller address plus per-node servers for later sabotage.
func tcpChaosRig(t *testing.T, n int, nodeFaults *cluster.FaultConfig) (string, []*cluster.MemoryNodeServer) {
	t.Helper()
	ctrl := cluster.NewController()
	cs, err := cluster.ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	t.Cleanup(func() { cc.Close() })
	var srvs []*cluster.MemoryNodeServer
	for i := 0; i < n; i++ {
		node := cluster.NewMemoryNode(i, 64<<20)
		var ns *cluster.MemoryNodeServer
		if nodeFaults != nil {
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cfg := *nodeFaults
			cfg.Seed += int64(i)
			ns = cluster.ServeMemoryNodeOn(node, cluster.NewFaultListener(inner, cfg))
		} else {
			ns, err = cluster.ServeMemoryNode(node, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(i, 64<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, ns)
	}
	return cs.Addr(), srvs
}

// TestTCPReplicaFailoverOverWire is §4.5 memory-node failure, over real
// sockets: with Replicas=2, killing the primary's daemon mid-run must
// leave every read answerable from the surviving replica, and the
// failovers must show up in FailureStats.
func TestTCPReplicaFailoverOverWire(t *testing.T) {
	addr, srvs := tcpChaosRig(t, 3, nil)
	cfg := smallConfig()
	cfg.Replicas = 2
	cfg.LocalCacheBytes = 8 * mem.PageSize
	k := NewKonaTCPWith(cfg, addr, chaosTr())

	const pages = 32
	base, err := k.Malloc(pages * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var now simDurT
	for i := 0; i < pages; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 512)
		if now, err = k.Write(now, base+mem.Addr(i)*mem.PageSize, payload); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	// Drain the cache-line log so both replicas hold the data.
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}

	// Kill the primary daemon of the slab holding base.
	s, ok := k.rm.alloc.SlabFor(base)
	if !ok {
		t.Fatal("no slab for base")
	}
	primary := k.rm.replicas[s.ID].members[0].Node
	srvs[primary].Close()

	buf := make([]byte, 512)
	for i := 0; i < pages; i++ {
		if now, err = k.Read(now, base+mem.Addr(i)*mem.PageSize, buf); err != nil {
			t.Fatalf("read page %d after primary death: %v", i, err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i + 1)}, 512)) {
			t.Fatalf("page %d corrupted after failover", i)
		}
	}
	if fs := k.FailureStats(); fs.Failovers == 0 {
		t.Fatalf("no failovers recorded: %+v (primary node %d)", fs, primary)
	}
}

// TestTCPRepairOntoUnlinkedNode: over TCP, a repair may flip a member onto
// a memnode the runtime has never linked, whose address it learns only
// when it builds that link. An R=2 slab lives on nodes 0 and 1; node 1 dies
// and is repaired onto node 2; writes made after the repair copy leave
// entries retained for node 1, which the refresh remaps and the next Sync
// ships to node 2. With node 0 dead too, every page must then read back
// from node 2 alone.
func TestTCPRepairOntoUnlinkedNode(t *testing.T) {
	ctrl := cluster.NewController()
	cs, err := cluster.ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	t.Cleanup(func() { cc.Close() })
	var nodes []*cluster.MemoryNode
	var srvs []*cluster.MemoryNodeServer
	serve := func(id int) {
		node := cluster.NewMemoryNode(id, 64<<20)
		ns, err := cluster.ServeMemoryNode(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(id, 64<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
		nodes, srvs = append(nodes, node), append(srvs, ns)
	}
	serve(0)
	serve(1)

	const pages = 24
	cfg := smallConfig()
	cfg.Replicas = 2
	cfg.LocalCacheBytes = 8 * mem.PageSize
	k := NewKonaTCPWith(cfg, cs.Addr(), chaosTr())
	base, err := k.Malloc(pages * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	serve(2) // joins after the carve: nothing of this runtime's is on it
	page := func(p int) mem.Addr { return base + mem.Addr(p)*mem.PageSize }
	content := func(p, version int) []byte {
		return bytes.Repeat([]byte{byte(version), byte(p)}, mem.PageSize/2)
	}
	var now simDurT
	writeAll := func(version int) {
		for p := 0; p < pages; p++ {
			now = mustWrite(t, k, now, page(p), content(p, version))
		}
	}
	sync := func() {
		t.Helper()
		if now, err = k.Sync(now); err != nil {
			t.Fatal(err)
		}
	}

	writeAll(1)
	sync()
	if ms := groupMembersFor(k, base); len(ms) != 2 || ms[0].Node != 0 || ms[1].Node != 1 {
		t.Fatalf("members = %+v, want nodes 0 and 1", ms)
	}
	srvs[1].Close()
	writeAll(2)
	sync() // the ship failure report gets node 1 expelled
	ctrl.HealthSweep()
	if ctrl.DegradedCount() == 0 {
		t.Fatal("node 1's loss not detected")
	}
	drainRepairs(t, cluster.NewReplaceEngine(ctrl, ctrl.Dial, cluster.ReplaceConfig{}), ctrl)

	writeAll(3) // no Sync: the member table still names node 1
	if changed, err := k.RefreshPlacements(); err != nil || !changed {
		t.Fatalf("refresh after the repair: changed=%v err=%v", changed, err)
	}
	sync()
	if fs := k.FailureStats(); fs.RemappedEntries == 0 || fs.SuspectMembers != 0 {
		t.Fatalf("retained entries did not drain onto node 2: %+v", fs)
	}
	srvs[0].Close()

	members := groupMembersFor(k, base)
	if len(members) != 2 || members[1].Node != 2 {
		t.Fatalf("members after the repair = %+v, want node 2 in slot 1", members)
	}
	buf := make([]byte, mem.PageSize)
	for p := 0; p < pages; p++ {
		off := members[1].RemoteOff + uint64(page(p)-members[1].Base)
		if err := nodes[2].ReadAt(off, buf); err != nil || !bytes.Equal(buf, content(p, 3)) {
			t.Fatalf("page %d on node 2: err=%v, not version 3", p, err)
		}
		if now, err = k.Read(now, page(p), buf); err != nil || !bytes.Equal(buf, content(p, 3)) {
			t.Fatalf("page %d through the runtime: err=%v, not version 3", p, err)
		}
	}
}

// TestTCPMCEPathOverWire is §4.5 network delay, over real sockets: a
// memory node whose listener stalls every I/O makes remote fetches exceed
// MCETimeout; ReadChecked must record the would-be machine checks and
// still return correct data (the paper's MCA recovery, not a crash).
func TestTCPMCEPathOverWire(t *testing.T) {
	faults := cluster.FaultConfig{Seed: 5, DelayProb: 1, MaxDelay: 3 * time.Millisecond}
	addr, _ := tcpChaosRig(t, 1, &faults)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 4 * mem.PageSize
	k := NewKonaTCPWith(cfg, addr, chaosTr())

	const pages = 8
	base, err := k.Malloc(pages * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var now simDurT
	for i := 0; i < pages; i++ {
		payload := bytes.Repeat([]byte{byte(0xA0 + i)}, 256)
		if now, err = k.Write(now, base+mem.Addr(i)*mem.PageSize, payload); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	// The cache holds 4 pages; reading all 8 forces remote fetches, each
	// delayed far past the 100µs MCE budget.
	buf := make([]byte, 256)
	for i := 0; i < pages; i++ {
		if now, err = k.ReadChecked(now, base+mem.Addr(i)*mem.PageSize, buf); err != nil {
			t.Fatalf("checked read page %d: %v", i, err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(0xA0 + i)}, 256)) {
			t.Fatalf("page %d corrupted through slow fetches", i)
		}
	}
	if fs := k.FailureStats(); fs.MCEs == 0 {
		t.Fatalf("slow remote fetches recorded no MCEs: %+v", fs)
	}
}

// TestTCPControllerBlipOverWire is §4.5's control-plane outage: the
// controller's listener drops a quarter of all I/O, yet slab allocation
// (retried with request-ID dedup) keeps the runtime growing, and the
// controller's books stay consistent — no slab carved twice.
func TestTCPControllerBlipOverWire(t *testing.T) {
	ctrl := cluster.NewController()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := cluster.NewFaultListener(inner, cluster.FaultConfig{Seed: 17, DropProb: 0.25})
	cs := cluster.ServeControllerOn(ctrl, fl)
	t.Cleanup(func() { cs.Close() })

	cc := cluster.DialControllerTransport(cs.Addr(), chaosTr())
	t.Cleanup(func() { cc.Close() })
	node := cluster.NewMemoryNode(0, 64<<20)
	ns, err := cluster.ServeMemoryNode(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	for i := 0; i < 20; i++ {
		err = cc.RegisterNode(0, 64<<20, ns.Addr())
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("registration through blips: %v", err)
	}

	cfg := smallConfig()
	cfg.SlabSize = 1 << 20
	k := NewKonaTCPWith(cfg, cs.Addr(), chaosTr())
	const allocs = 8
	var now simDurT
	for i := 0; i < allocs; i++ {
		a, err := k.Malloc(cfg.SlabSize) // each Malloc needs a fresh slab
		if err != nil {
			t.Fatalf("malloc %d through controller blips: %v", i, err)
		}
		if now, err = k.Write(now, a, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	ctrlNode, _ := ctrl.Node(0)
	if _, used := ctrlNode.Capacity(); used != allocs*cfg.SlabSize {
		t.Fatalf("controller carved %d bytes for %d slabs of %d — retries leaked", used, allocs, cfg.SlabSize)
	}
	if fl.Faults() == 0 {
		t.Fatalf("no faults injected; test proves nothing")
	}
}
