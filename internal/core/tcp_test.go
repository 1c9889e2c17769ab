package core

import (
	"bytes"
	"math/rand"
	"net"
	"testing"

	"kona/internal/cluster"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// tcpRig spins a controller daemon and n memory-node daemons on localhost
// and returns the controller's address plus the daemon node objects. It
// takes testing.TB so benchmarks share the rig.
func tcpRig(t testing.TB, n int) (string, []*cluster.MemoryNode) {
	t.Helper()
	return tcpRigWith(t, n, nil)
}

// tcpRigWith is tcpRig with the memory-node daemons reporting into reg.
func tcpRigWith(t testing.TB, n int, reg *telemetry.Registry) (string, []*cluster.MemoryNode) {
	t.Helper()
	ctrl := cluster.NewController()
	cs, err := cluster.ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	var nodes []*cluster.MemoryNode
	for i := 0; i < n; i++ {
		node := cluster.NewMemoryNode(i, 64<<20)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ns := cluster.ServeMemoryNodeOnWith(node, l, reg)
		t.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(i, 64<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	return cs.Addr(), nodes
}

// TestMultiPageReadIsOneRPC is the `make guards` count guard for span reads
// (DESIGN.md §16), no timing in it, on both fabrics: a cold Read of a
// 3-page region of plain pages makes exactly one remote read — one memnode
// `read` RPC and no `read-pages` over loopback TCP, one RDMA read on the
// in-process rack — counts one core.fetches, and fetches the region's
// 3 x 4 096 bytes. Before, TCP made one `read-pages` (a whole-page
// scatter-gather batch) and the in-process rack one read and one fetch per
// page.
func TestMultiPageReadIsOneRPC(t *testing.T) {
	for _, fabric := range []struct {
		name string
		// open builds the runtime and returns it with a count of its remote
		// reads and of the `read-pages` gathers among them.
		open func(t *testing.T, cfg Config) (k *Kona, reads, gathers func() uint64)
	}{
		{"in-process", func(t *testing.T, cfg Config) (*Kona, func() uint64, func() uint64) {
			k := NewKona(cfg, newCluster(1))
			// With nothing dirty, every verb the links post is a read; a
			// gather is posted as reads too, so it shows as more than one.
			reads := func() (n uint64) {
				sl := k.rm.links.(*simLinks)
				sl.mu.Lock()
				defer sl.mu.Unlock()
				for _, l := range sl.links {
					_, wrs, _ := l.qp.Stats()
					n += wrs
				}
				return n
			}
			return k, reads, func() uint64 { return 0 }
		}},
		{"loopback TCP", func(t *testing.T, cfg Config) (*Kona, func() uint64, func() uint64) {
			reg := telemetry.New(0)
			addr, _ := tcpRigWith(t, 1, reg)
			served := func(kind string) func() uint64 {
				return func() uint64 { return reg.Counter("cluster.memnode.served." + kind).Value() }
			}
			return NewKonaTCP(cfg, addr), served("read"), served("read-pages")
		}},
	} {
		t.Run(fabric.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Metrics = telemetry.New(0)
			k, reads, gathers := fabric.open(t, cfg)
			const size = 3 * mem.PageSize
			base, err := k.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if base.PageOffset() != 0 {
				t.Fatalf("Malloc placed the region at %v, test expects a page boundary", base)
			}
			data := make([]byte, size)
			rand.New(rand.NewSource(3)).Read(data)
			now := mustWrite(t, k, 0, base, data)
			if now, err = k.Sync(now); err != nil {
				t.Fatal(err)
			}
			coldCache(k)
			k.PublishTelemetry()
			fetched, fetches := cfg.Metrics.Counter("core.fpga.bytes_fetched"), cfg.Metrics.Counter("core.fetches")
			bytes0, fetches0, reads0, pages0 := fetched.Value(), fetches.Value(), reads(), gathers()
			if _, got := mustRead(t, k, now, base, size); !bytes.Equal(got, data) {
				t.Fatal("the region did not come back from remote memory")
			}
			k.PublishTelemetry()
			dBytes, dFetches, dReads, dPages := fetched.Value()-bytes0, fetches.Value()-fetches0, reads()-reads0, gathers()-pages0
			t.Logf("cold 3-page read: %d remote reads, %d read-pages, %d core.fetches, %d B fetched", dReads, dPages, dFetches, dBytes)
			if dReads != 1 || dPages != 0 {
				t.Errorf("the read made %d remote reads and %d read-pages, want 1 and 0", dReads, dPages)
			}
			if dFetches != 1 {
				t.Errorf("the read counted %d core.fetches, want 1", dFetches)
			}
			if dBytes != size {
				t.Errorf("the read fetched %d B, want %d", dBytes, size)
			}
			if err := k.Close(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKonaOverTCP(t *testing.T) {
	addr, nodes := tcpRig(t, 2)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 16 * mem.PageSize
	k := NewKonaTCP(cfg, addr)

	base, err := k.Malloc(64 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tcp!"), 64)
	now, err := k.Write(0, base+512, payload)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	now, err = k.Read(now, base+512, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("TCP read-your-writes violated")
	}
	if now <= 0 {
		t.Fatalf("wall-clock latency did not fold into virtual time")
	}
	// Sync drains the cache-line log over the wire; one of the daemons'
	// receivers must have applied entries.
	if _, err := k.Sync(now); err != nil {
		t.Fatal(err)
	}
	applied := uint64(0)
	for _, n := range nodes {
		_, lines := n.ReceiverStats()
		applied += lines
	}
	if applied == 0 {
		t.Fatalf("no cache-line log reached the TCP daemons")
	}
}

func TestKonaOverTCPEvictionChurn(t *testing.T) {
	// A model-style run over real sockets: tiny cache, many pages, random
	// ops; every read must match the reference.
	addr, _ := tcpRig(t, 2)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	k := NewKonaTCP(cfg, addr)
	base, err := k.Malloc(64 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 64*mem.PageSize)
	rng := rand.New(rand.NewSource(9))
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
				t.Fatalf("step %d: TCP read diverged at +%d", step, off)
			}
		}
	}
}

func TestTCPDelayInjectionUnsupported(t *testing.T) {
	addr, _ := tcpRig(t, 1)
	k := NewKonaTCP(smallConfig(), addr)
	if _, err := k.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	if err := k.InjectNetworkDelay(0, 1); err == nil {
		t.Errorf("TCP transport accepted delay injection")
	}
}

func TestCloseReleasesSlabs(t *testing.T) {
	ctrl := newCluster(1)
	cfg := smallConfig()
	cfg.SlabSize = 8 << 20
	k := NewKona(cfg, ctrl)
	if _, err := k.Malloc(8 << 20); err != nil {
		t.Fatal(err)
	}
	node, _ := ctrl.Node(0)
	_, usedBefore := node.Capacity()
	if usedBefore == 0 {
		t.Fatalf("no slab carved")
	}
	if err := k.Close(0); err != nil {
		t.Fatal(err)
	}
	// A fresh runtime can reuse the released extent even though the node
	// pool was fully carved before.
	k2 := NewKona(cfg, ctrl)
	if _, err := k2.Malloc(8 << 20); err != nil {
		t.Fatalf("released slab not reusable: %v", err)
	}
}

func TestCloseOverTCP(t *testing.T) {
	addr, _ := tcpRig(t, 1)
	cfg := smallConfig()
	k := NewKonaTCP(cfg, addr)
	if _, err := k.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(0, 1<<40, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(0); err != nil {
		t.Fatal(err)
	}
}

func TestKonaVMClose(t *testing.T) {
	k := NewKonaVM(smallConfig(), newCluster(1))
	if _, err := k.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(0); err != nil {
		t.Fatal(err)
	}
}

func TestTCPReplicatedRuntime(t *testing.T) {
	addr, nodes := tcpRig(t, 3)
	cfg := smallConfig()
	cfg.Replicas = 2
	k := NewKonaTCP(cfg, addr)
	base, err := k.Malloc(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("replicated over tcp")
	if _, err := k.Write(0, base, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sync(0); err != nil {
		t.Fatal(err)
	}
	// The log reached at least two daemon receivers.
	applied := 0
	for _, n := range nodes {
		if _, lines := n.ReceiverStats(); lines > 0 {
			applied++
		}
	}
	if applied < 2 {
		t.Errorf("replicated log reached %d daemons, want >= 2", applied)
	}
}

func TestCoherentDomainCPUAccessor(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	d := k.NewCoherentDomain(2, 64, 4)
	if d.CPU(0) == nil || d.CPU(1) == nil {
		t.Fatalf("CPU accessor broken")
	}
	addr, err := k.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CPU(0).Store(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPBadControllerAddress(t *testing.T) {
	k := NewKonaTCP(smallConfig(), "127.0.0.1:1") // nothing listens there
	if _, err := k.Malloc(4096); err == nil {
		t.Errorf("malloc against dead controller succeeded")
	}
}
