package cluster

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kona/internal/cllog"
	"kona/internal/mem"
	"kona/internal/slab"
)

func TestControllerRoundRobin(t *testing.T) {
	c := NewController()
	if _, err := allocOne(c, 1<<20); err == nil {
		t.Fatalf("alloc with no nodes succeeded")
	}
	n0 := NewMemoryNode(0, 64<<20)
	n1 := NewMemoryNode(1, 64<<20)
	if err := c.Register(n0); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(n0); err == nil {
		t.Fatalf("duplicate registration accepted")
	}
	if err := c.Register(n1); err != nil {
		t.Fatal(err)
	}
	s1, err := allocOne(c, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := allocOne(c, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Node == s2.Node {
		t.Errorf("round-robin placed both slabs on node %d", s1.Node)
	}
	if s1.Base < VFMemBase || s2.Base < VFMemBase {
		t.Errorf("slab bases below VFMemBase")
	}
	if s1.Range().Overlaps(s2.Range()) {
		t.Errorf("slab address ranges overlap: %v %v", s1.Range(), s2.Range())
	}
	if s1.ID == s2.ID {
		t.Errorf("duplicate slab ids")
	}
}

func TestControllerSkipsFullAndFailedNodes(t *testing.T) {
	c := NewController()
	small := NewMemoryNode(0, 1<<20)
	big := NewMemoryNode(1, 64<<20)
	if err := c.Register(small); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(big); err != nil {
		t.Fatal(err)
	}
	// 8MB slab only fits on the big node, repeatedly.
	for i := 0; i < 3; i++ {
		s, err := allocOne(c, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		if s.Node != 1 {
			t.Errorf("slab landed on full node")
		}
	}
	big.Fail()
	if _, err := allocOne(c, 8<<20); err == nil {
		t.Errorf("allocation on failed node succeeded")
	}
	// Oversized request fails cleanly.
	if _, err := allocOne(c, 1<<40); err == nil {
		t.Errorf("oversized slab succeeded")
	}
	if _, err := allocOne(c, 0); err == nil {
		t.Errorf("zero slab succeeded")
	}
}

func TestReplicatedSlabPlacement(t *testing.T) {
	c := NewController()
	for i := 0; i < 3; i++ {
		if err := c.Register(NewMemoryNode(i, 64<<20)); err != nil {
			t.Fatal(err)
		}
	}
	slabs, err := c.AllocSlab(8<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(slabs) != 2 {
		t.Fatalf("replicas = %d", len(slabs))
	}
	if slabs[0].Node == slabs[1].Node {
		t.Errorf("replicas co-located on node %d", slabs[0].Node)
	}
	if slabs[0].Base != slabs[1].Base {
		t.Errorf("replica bases differ: %v vs %v", slabs[0].Base, slabs[1].Base)
	}
	if _, err := c.AllocSlab(8<<20, 4); err == nil {
		t.Errorf("4 replicas on 3 nodes succeeded")
	}
	if _, err := c.AllocSlab(8<<20, 0); err == nil {
		t.Errorf("0 replicas succeeded")
	}
}

// slabAllocator is the one slab-allocation verb, in process or over TCP.
type slabAllocator interface {
	AllocSlab(size uint64, replicas int) ([]slab.Slab, error)
}

// allocOne allocates a plain slab: a placement group of one.
func allocOne(a slabAllocator, size uint64) (slab.Slab, error) {
	ss, err := a.AllocSlab(size, 1)
	if err != nil {
		return slab.Slab{}, err
	}
	return ss[0], nil
}

// TestAllocSlabRefusesZeroSize: a zero-size slab is refused at every
// replica count, in process and over the wire, and the refusal spends no
// group id and no VFMem range — the next slab is group 1 at VFMemBase.
func TestAllocSlabRefusesZeroSize(t *testing.T) {
	check := func(t *testing.T, a slabAllocator, r int) {
		if _, err := a.AllocSlab(0, r); err == nil || !strings.Contains(err.Error(), "zero-size slab") {
			t.Fatalf("AllocSlab(0, %d) = %v, want the zero-size refusal", r, err)
		}
		ss, err := a.AllocSlab(4096, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ss) != r {
			t.Fatalf("AllocSlab(4096, %d) returned %d members", r, len(ss))
		}
		for _, s := range ss {
			if s.ID != 1 || s.Base != VFMemBase || s.Size != 4096 {
				t.Errorf("member %+v, want group 1 of 4096 bytes at %v", s, VFMemBase)
			}
		}
	}
	for r := 1; r <= 3; r++ {
		t.Run(fmt.Sprintf("R=%d/local", r), func(t *testing.T) {
			c := NewController()
			for i := 0; i < 3; i++ {
				if err := c.Register(NewMemoryNode(i, 1<<20)); err != nil {
					t.Fatal(err)
				}
			}
			check(t, c, r)
		})
		t.Run(fmt.Sprintf("R=%d/tcp", r), func(t *testing.T) {
			cs, err := ServeController(NewController(), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			cc := DialController(cs.Addr())
			defer cc.Close()
			for i := 0; i < 3; i++ {
				// Allocation never dials a node: the address is only recorded.
				if err := cc.RegisterNode(i, 1<<20, fmt.Sprintf("127.0.0.1:%d", 1+i)); err != nil {
					t.Fatal(err)
				}
			}
			check(t, cc, r)
		})
	}
}

func TestControllerRemove(t *testing.T) {
	c := NewController()
	if err := c.Register(NewMemoryNode(0, 8<<20)); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(NewMemoryNode(1, 8<<20)); err != nil {
		t.Fatal(err)
	}
	c.Remove(0)
	if c.Nodes() != 1 {
		t.Fatalf("nodes = %d", c.Nodes())
	}
	for i := 0; i < 2; i++ {
		s, err := allocOne(c, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if s.Node != 1 {
			t.Errorf("slab placed on removed node")
		}
	}
}

// carveOn carves size bytes on node id through the controller's record of
// it, the one owner of carve accounting.
func carveOn(c *Controller, id int, size uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id].carve(size)
}

func TestMemoryNodeCarve(t *testing.T) {
	c := NewController()
	if err := c.Register(NewMemoryNode(3, 4<<20)); err != nil {
		t.Fatal(err)
	}
	off1, err := carveOn(c, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := carveOn(c, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if off1 == off2 {
		t.Errorf("slabs overlap")
	}
	if _, err := carveOn(c, 3, 8<<20); err == nil {
		t.Errorf("over-capacity carve succeeded")
	}
	n, _ := c.Node(3)
	total, used := n.Capacity()
	if total != 4<<20 || used != 2<<20 {
		t.Errorf("capacity = %d/%d", used, total)
	}
}

func TestLogReceiverScatters(t *testing.T) {
	n := NewMemoryNode(0, 1<<20)
	entries := []cllog.Entry{
		{RemoteOff: 0, Data: bytes.Repeat([]byte{0xAA}, mem.CacheLineSize)},
		{RemoteOff: 4096, Data: bytes.Repeat([]byte{0xBB}, 2*mem.CacheLineSize)},
	}
	packed, err := cllog.Pack(entries, n.logMR.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	applied, service, err := n.UnpackLogFrom(0, packed)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || service <= 0 {
		t.Fatalf("applied=%d service=%v", applied, service)
	}
	pool := n.PoolBytes()
	if pool[0] != 0xAA || pool[63] != 0xAA || pool[64] == 0xAA {
		t.Errorf("entry 0 misplaced")
	}
	if pool[4096] != 0xBB || pool[4096+127] != 0xBB {
		t.Errorf("entry 1 misplaced")
	}
	logs, lines := n.ReceiverStats()
	if logs != 1 || lines != 2 {
		t.Errorf("receiver stats = %d/%d", logs, lines)
	}
	// Out-of-range entry is rejected.
	bad := []cllog.Entry{{RemoteOff: 1 << 20, Data: make([]byte, 64)}}
	packed, err = cllog.Pack(bad, n.logMR.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.UnpackLogFrom(0, packed); err == nil {
		t.Errorf("out-of-pool entry accepted")
	}
	n.Fail()
	if _, _, err := n.UnpackLogFrom(0, packed); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Errorf("failed node accepted log: %v", err)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	// Controller daemon.
	ctrl := NewController()
	cs, err := ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	// Two memory-node daemons; note the controller holds its own node
	// objects (registered via RPC) — the daemons serve the data plane.
	var nodeSrvs []*MemoryNodeServer
	cc := DialController(cs.Addr())
	for i := 0; i < 2; i++ {
		n := NewMemoryNode(i, 8<<20)
		ns, err := ServeMemoryNode(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ns.Close()
		nodeSrvs = append(nodeSrvs, ns)
		if err := cc.RegisterNode(i, 8<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := cc.Ping(); err != nil {
		t.Fatal(err)
	}

	// Allocate a slab; write and read back through the hosting node.
	s, err := allocOne(cc, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := cc.NodeAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if addrs[s.Node] == "" {
		t.Fatalf("controller returned no address for node %d", s.Node)
	}
	mc := DialMemoryNode(addrs[s.Node])
	if err := mc.Ping(); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 4096)
	if err := mc.WriteVec(s.RemoteOff, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrom(mc, s.RemoteOff, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("TCP read-back mismatch")
	}

	// Ship a cache-line log over TCP.
	entries := []cllog.Entry{{RemoteOff: s.RemoteOff + 8192, Data: bytes.Repeat([]byte{3}, 64)}}
	packed := make([]byte, cllog.PackedSize(entries))
	if _, err := cllog.Pack(entries, packed); err != nil {
		t.Fatal(err)
	}
	applied, err := mc.WriteLogVec(packed)
	if err != nil || applied != 1 {
		t.Fatalf("WriteLog: %d %v", applied, err)
	}
	got, err = readFrom(mc, s.RemoteOff+8192, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, entries[0].Data) {
		t.Fatalf("log entry not scattered over TCP")
	}

	// Replicated allocation over TCP.
	slabs, err := cc.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(slabs) != 2 || slabs[0].Node == slabs[1].Node || addrs[slabs[1].Node] == "" {
		t.Fatalf("replicated alloc: %d slabs %+v, addrs %v", len(slabs), slabs, addrs)
	}

	// Error paths over the wire.
	if _, err := readFrom(mc, 1<<40, 10); err == nil {
		t.Errorf("out-of-range TCP read succeeded")
	}
	if _, err := allocOne(cc, 1<<40); err == nil {
		t.Errorf("oversized TCP alloc succeeded")
	}
	_ = nodeSrvs
}

func TestHealthSweep(t *testing.T) {
	c := NewController()
	for i := 0; i < 3; i++ {
		if err := c.Register(NewMemoryNode(i, 8<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if dead := c.HealthSweep(); len(dead) != 0 {
		t.Fatalf("healthy rack reported dead nodes: %v", dead)
	}
	n1, _ := c.Node(1)
	n1.Fail()
	dead := c.HealthSweep()
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("sweep = %v, want [1]", dead)
	}
	if c.Nodes() != 2 {
		t.Errorf("nodes after sweep = %d", c.Nodes())
	}
	// Allocation no longer lands on the removed node.
	for i := 0; i < 4; i++ {
		s, err := allocOne(c, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if s.Node == 1 {
			t.Errorf("slab placed on swept node")
		}
	}
}

func TestTCPProtocolRobustness(t *testing.T) {
	ctrl := NewController()
	if err := ctrl.Register(NewMemoryNode(0, 8<<20)); err != nil {
		t.Fatal(err)
	}
	cs, err := ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	// Unknown request kind gets a clean error, not a hang.
	resp, err := roundTripOnce(cs.Addr(), &Request{Kind: kindInvalid})
	if err == nil {
		t.Errorf("unknown kind accepted: %+v", resp)
	}
	// Raw garbage on the socket must not wedge the server.
	conn, err := net.Dial("tcp", cs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err = conn.Write([]byte("this is not gob")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The server still answers afterwards.
	if _, err := roundTripOnce(cs.Addr(), &Request{Kind: kindPing}); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	// Release of an unknown node errors cleanly over the wire.
	cc := DialController(cs.Addr())
	if err := cc.ReleaseSlab(slab.Slab{Node: 99, Size: 1}); err == nil {
		t.Errorf("release for unknown node accepted")
	}
	// Release round trip.
	s, err := allocOne(cc, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.ReleaseSlab(s); err != nil {
		t.Fatal(err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	ctrl := NewController()
	for i := 0; i < 2; i++ {
		if err := ctrl.Register(NewMemoryNode(i, 64<<20)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cc := DialController(cs.Addr())
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := allocOne(cc, 1<<20); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent alloc: %v", err)
	}
}

func TestNodeAccessors(t *testing.T) {
	n := NewMemoryNode(7, 1<<20)
	if n.Endpoint() == nil {
		t.Errorf("nil endpoint")
	}
	if n.LogKey() == n.PoolKey() {
		t.Errorf("log and pool share a key")
	}
	if n.ID() != 7 {
		t.Errorf("id = %d", n.ID())
	}
	// Released extents are reused exactly.
	c := NewController()
	if err := c.Register(n); err != nil {
		t.Fatal(err)
	}
	off, err := carveOn(c, 7, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AbandonExtent(slab.Slab{Node: 7, RemoteOff: off, Size: 1 << 19}); err != nil {
		t.Fatal(err)
	}
	off2, err := carveOn(c, 7, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off {
		t.Errorf("released extent not reused: %d vs %d", off2, off)
	}
}

// TestControllerRegisterAllocatesNoPool registers a 1 GiB memnode with a
// controller daemon: the controller keeps a record for carve accounting,
// not a pool, so registration adds well under 1 MB to the heap's
// cumulative allocation (it made the whole capacity when the record was a
// full MemoryNode), and the node still carves slabs.
func TestControllerRegisterAllocatesNoPool(t *testing.T) {
	cs, err := ServeController(NewController(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cc := DialController(cs.Addr())
	defer cc.Close()
	if err := cc.Ping(); err != nil { // warm the connection
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := cc.RegisterNode(0, 1<<30, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("registering a 1 GiB node allocated %d bytes at the controller, want < 1 MB", d)
	}
	slabs, err := cc.AllocSlab(16<<20, 1)
	if err != nil || len(slabs) != 1 || slabs[0].Node != 0 || slabs[0].Size != 16<<20 {
		t.Fatalf("carve from the registered node: %+v, %v", slabs, err)
	}
}

// readFrom fetches n bytes at off into a fresh buffer. Product code reads
// into frames it owns (ReadInto); tests want the bytes.
func readFrom(c *MemoryNodeClient, off uint64, n int) ([]byte, error) {
	buf := make([]byte, n)
	return buf, c.ReadInto(off, buf)
}

// readPagesFrom gathers one n-byte span at each offset into fresh buffers.
func readPagesFrom(c *MemoryNodeClient, offs []uint64, n int) ([][]byte, error) {
	bufs := make([][]byte, len(offs))
	for i := range bufs {
		bufs[i] = make([]byte, n)
	}
	return bufs, c.ReadPagesInto(offs, bufs)
}
