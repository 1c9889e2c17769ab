package cluster

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"kona/internal/cllog"
	"kona/internal/mem"
	"kona/internal/slab"
)

// Lease directory unit tests (DESIGN.md §14): the single-writer /
// multi-reader state machine, injectable-clock TTL expiry, takeover
// epoch bumps, and the memnode-side fences that reject a zombie
// writer's WriteLog batch all-or-nothing.

// leaseRack is a controller with n registered 8MB in-process nodes and
// an injectable lease clock starting at t0.
func leaseRack(t *testing.T, n int) (*Controller, *time.Time) {
	t.Helper()
	c := NewController()
	for i := 0; i < n; i++ {
		if err := c.Register(NewMemoryNode(i, 8<<20)); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Unix(1000, 0)
	c.SetLeaseClock(func() time.Time { return now })
	return c, &now
}

func TestLeaseDirectoryStateMachine(t *testing.T) {
	c, _ := leaseRack(t, 1)
	s, err := allocOne(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const alice, bob, carol = 11, 22, 33

	// First writer acquire opens epoch 1.
	g, err := c.AcquireLease(s.ID, alice, LeaseWriter, 0)
	if err != nil {
		t.Fatalf("writer acquire: %v", err)
	}
	if g.Epoch != 1 || g.Version != 0 {
		t.Fatalf("first grant epoch=%d version=%d, want 1/0", g.Epoch, g.Version)
	}
	// Re-acquire by the holder renews, no epoch bump.
	if g, err = c.AcquireLease(s.ID, alice, LeaseWriter, 0); err != nil || g.Epoch != 1 {
		t.Fatalf("idempotent re-acquire: %v epoch=%d", err, g.Epoch)
	}
	// A conflicting writer acquire is refused with ErrLeaseConflict.
	if _, err = c.AcquireLease(s.ID, bob, LeaseWriter, 0); !errors.Is(err, ErrLeaseConflict) {
		t.Fatalf("conflicting acquire: got %v, want lease conflict", err)
	}
	// Readers coexist with the writer (invalidation is their protection).
	if _, err = c.AcquireLease(s.ID, bob, LeaseReader, 0); err != nil {
		t.Fatalf("reader acquire: %v", err)
	}
	if _, err = c.AcquireLease(s.ID, carol, LeaseReader, 0); err != nil {
		t.Fatalf("second reader acquire: %v", err)
	}
	// A reader's upgrade attempt conflicts while the writer lease is held.
	if _, err = c.AcquireLease(s.ID, bob, LeaseWriter, 0); !errors.Is(err, ErrLeaseConflict) {
		t.Fatalf("upgrade under live writer: got %v, want lease conflict", err)
	}
	// Publish bumps the version; readers see it on renew.
	if _, err = c.PublishLease(s.ID, alice); err != nil {
		t.Fatal(err)
	}
	if g, err = c.RenewLease(s.ID, bob, LeaseReader, 0); err != nil || g.Version != 1 {
		t.Fatalf("reader renew after publish: %v version=%d, want 1", err, g.Version)
	}
	// Publishing without the writer lease is rejected.
	if _, err = c.PublishLease(s.ID, bob); !errors.Is(err, ErrLeaseConflict) {
		t.Fatalf("publish by reader: got %v, want lease conflict", err)
	}
	// Clean release opens the slot; bob's upgrade drops his reader entry
	// and bumps the epoch (handover).
	if err = c.ReleaseLease(s.ID, alice); err != nil {
		t.Fatal(err)
	}
	if g, err = c.AcquireLease(s.ID, bob, LeaseWriter, 0); err != nil || g.Epoch != 2 {
		t.Fatalf("upgrade after release: %v epoch=%d, want 2", err, g.Epoch)
	}
	st := c.LeaseSnapshot()
	if st.Writers != 1 || st.Readers != 1 { // carol still reads
		t.Fatalf("snapshot writers=%d readers=%d, want 1/1", st.Writers, st.Readers)
	}
	if st.Rejects < 3 {
		t.Fatalf("snapshot rejects=%d, want >=3", st.Rejects)
	}

	// Unknown group and zero runtime id are rejected outright.
	if _, err = c.AcquireLease(s.ID+999, alice, LeaseWriter, 0); err == nil {
		t.Fatal("acquire on unknown group succeeded")
	}
	if _, err = c.AcquireLease(s.ID, 0, LeaseWriter, 0); err == nil {
		t.Fatal("acquire with runtime id 0 succeeded")
	}
}

func TestLeaseTTLExpiryAndTakeover(t *testing.T) {
	c, now := leaseRack(t, 1)
	c.SetLeaseTTL(time.Second)
	s, err := allocOne(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const alice, bob = 1, 2

	if _, err = c.AcquireLease(s.ID, alice, LeaseWriter, 0); err != nil {
		t.Fatal(err)
	}
	// Within the TTL a rival acquire still conflicts.
	*now = now.Add(900 * time.Millisecond)
	if _, err = c.AcquireLease(s.ID, bob, LeaseWriter, 0); !errors.Is(err, ErrLeaseConflict) {
		t.Fatalf("pre-expiry acquire: got %v, want conflict", err)
	}
	// Past the TTL the takeover succeeds and bumps the epoch.
	*now = now.Add(200 * time.Millisecond)
	g, err := c.AcquireLease(s.ID, bob, LeaseWriter, 0)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if g.Epoch != 2 {
		t.Fatalf("takeover epoch=%d, want 2", g.Epoch)
	}
	// The zombie's renew is the stop-writing signal.
	if _, err = c.RenewLease(s.ID, alice, LeaseWriter, 0); !errors.Is(err, ErrLeaseConflict) {
		t.Fatalf("zombie renew: got %v, want conflict", err)
	}
	st := c.LeaseSnapshot()
	if st.Expirations != 1 || st.Takeovers != 1 {
		t.Fatalf("expirations=%d takeovers=%d, want 1/1", st.Expirations, st.Takeovers)
	}

	// Reader leases expire silently: an expired reader just re-grants.
	if _, err = c.AcquireLease(s.ID, alice, LeaseReader, 0); err != nil {
		t.Fatal(err)
	}
	*now = now.Add(2 * time.Second)
	if snap := c.LeaseSnapshot(); snap.Readers != 1 {
		t.Fatalf("pre-sweep reader gauge=%d, want 1 (lazy expiry)", snap.Readers)
	}
	if _, err = c.RenewLease(s.ID, alice, LeaseReader, 0); err != nil {
		t.Fatalf("reader renew after lapse: %v", err)
	}
}

// packInto packs entries into node n's log region and returns the byte
// count, mimicking what a compute runtime's log ship RDMA-writes.
func packInto(t *testing.T, n *MemoryNode, entries []cllog.Entry) int {
	t.Helper()
	packed, err := cllog.Pack(entries, n.logMR.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return packed
}

func TestZombieWriterWriteLogFencedWholeBatch(t *testing.T) {
	c, now := leaseRack(t, 1)
	c.SetLeaseTTL(time.Second)
	s, err := allocOne(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := c.Node(s.Node)
	n := info.MemoryNode
	const alice, bob = 7, 8

	if _, err = c.AcquireLease(s.ID, alice, LeaseWriter, 0); err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{0xAA}, mem.CacheLineSize)
	entries := []cllog.Entry{
		{RemoteOff: s.RemoteOff, Data: line},
		{RemoteOff: s.RemoteOff + 4096, Data: line},
	}
	// The lease holder's batch applies.
	if _, _, err := n.UnpackLogFrom(alice, packInto(t, n, entries)); err != nil {
		t.Fatalf("holder's batch rejected: %v", err)
	}
	// An identified foreign writer is fenced; so is an unidentified
	// legacy writer (runtime 0).
	for _, zombie := range []uint64{bob, 0} {
		if _, _, err := n.UnpackLogFrom(zombie, packInto(t, n, entries)); !errors.Is(err, ErrLeaseFenced) {
			t.Fatalf("runtime %d batch: got %v, want lease-fenced", zombie, err)
		}
	}
	// Plain writes are fenced identically.
	if err := n.WriteAtFrom(bob, s.RemoteOff, line); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("foreign WriteAt: got %v, want lease-fenced", err)
	}

	// Expire alice and let bob take over: the fences flip to bob, and the
	// zombie's batch — even one with a single fenced entry among clean
	// ones — is rejected with NO byte applied (all-or-nothing).
	*now = now.Add(2 * time.Second)
	if _, err = c.AcquireLease(s.ID, bob, LeaseWriter, 0); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	marker := bytes.Repeat([]byte{0x5B}, mem.CacheLineSize)
	if _, _, err := n.UnpackLogFrom(bob, packInto(t, n, []cllog.Entry{{RemoteOff: s.RemoteOff, Data: marker}})); err != nil {
		t.Fatalf("successor's batch rejected: %v", err)
	}
	zombieLine := bytes.Repeat([]byte{0xEE}, mem.CacheLineSize)
	batch := []cllog.Entry{
		{RemoteOff: s.RemoteOff + 8192, Data: zombieLine}, // fenced extent
		{RemoteOff: s.RemoteOff, Data: zombieLine},        // would clobber bob's marker
	}
	if _, _, err := n.UnpackLogFrom(alice, packInto(t, n, batch)); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("zombie batch after takeover: got %v, want lease-fenced", err)
	}
	got := make([]byte, mem.CacheLineSize)
	if err := n.ReadAt(s.RemoteOff, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, marker) {
		t.Fatal("zombie batch partially applied: successor's bytes clobbered")
	}
	got2 := make([]byte, mem.CacheLineSize)
	if err := n.ReadAt(s.RemoteOff+8192, got2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got2, zombieLine) {
		t.Fatal("zombie batch partially applied: fenced entry landed")
	}

	// Releasing the group's slab drops its fences and directory entry.
	if err := c.ReleaseSlab(s); err != nil {
		t.Fatal(err)
	}
	if snap := c.LeaseSnapshot(); snap.Writers != 0 {
		t.Fatalf("writer gauge=%d after group release, want 0", snap.Writers)
	}
}

// TestLeaseRefusalsArriveTyped: over TCP, a conflicting acquire at the
// controller and a foreign runtime's write and log batch at the memnode
// arrive as the typed sentinels, carried by the response status.
func TestLeaseRefusalsArriveTyped(t *testing.T) {
	_, cs, _ := tcpRack(t, 1)
	cc := DialController(cs.Addr())
	defer cc.Close()
	s, err := allocOne(cc, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := cc.NodeAddrs()
	if err != nil {
		t.Fatal(err)
	}
	const alice, bob = 7, 8
	if _, err := cc.AcquireLease(s.ID, alice, LeaseWriter, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.AcquireLease(s.ID, bob, LeaseWriter, 0); !errors.Is(err, ErrLeaseConflict) || errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("conflicting acquire over TCP: got %v, want ErrLeaseConflict", err)
	}
	mc := DialMemoryNode(addrs[s.Node])
	defer mc.Close()
	mc.SetEpoch(s.Epoch)
	mc.SetRuntime(bob)
	if err := mc.WriteVec(s.RemoteOff, make([]byte, mem.CacheLineSize)); !errors.Is(err, ErrLeaseFenced) || errors.Is(err, ErrSealed) {
		t.Fatalf("foreign write over TCP: got %v, want ErrLeaseFenced", err)
	}
	if _, err := mc.WriteLogVec(buildLog(t, s.RemoteOff, mem.CacheLineSize)); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("foreign log batch over TCP: got %v, want ErrLeaseFenced", err)
	}
	mc.SetRuntime(alice)
	if err := mc.WriteVec(s.RemoteOff, make([]byte, mem.CacheLineSize)); err != nil {
		t.Fatalf("holder's write over TCP: %v", err)
	}
}

// TestLeaseSurvivesRepairFlip pins the lease-table × repair interaction:
// a repair flip replaces a leased group's dead member, and the repaired
// extent must reject the same stale writers the old one did.
func TestLeaseSurvivesRepairFlip(t *testing.T) {
	c, _ := leaseRack(t, 3)
	members, err := c.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	group := members[0].ID
	const alice, bob = 5, 6
	if _, err = c.AcquireLease(group, alice, LeaseWriter, 0); err != nil {
		t.Fatal(err)
	}

	// Kill the secondary member's node and repair onto the spare.
	victim := members[1].Node
	vn, _ := c.Node(victim)
	vn.Fail()
	if !c.ReportNodeFailure(victim) {
		t.Fatal("victim not expelled")
	}
	degraded := c.DegradedSlabs()
	if len(degraded) != 1 {
		t.Fatalf("degraded slabs = %d, want 1", len(degraded))
	}
	_, target, err := c.CarveReplacement(degraded[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CommitReplacement(degraded[0], target, true); err != nil {
		t.Fatal(err)
	}

	// The repaired member's fresh extent carries alice's fence.
	tn, _ := c.Node(target.Node)
	line := bytes.Repeat([]byte{1}, mem.CacheLineSize)
	if err := tn.WriteAtFrom(bob, target.RemoteOff, line); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("foreign write to repaired member: got %v, want lease-fenced", err)
	}
	if err := tn.WriteAtFrom(alice, target.RemoteOff, line); err != nil {
		t.Fatalf("holder write to repaired member: %v", err)
	}
}

// TestLeaseSurvivesMigrationFlip is the migration twin: flipping a live
// member re-arms the writer's fence on the migration target.
func TestLeaseSurvivesMigrationFlip(t *testing.T) {
	c, _ := leaseRack(t, 2)
	s, err := allocOne(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const alice, bob = 3, 4
	if _, err = c.AcquireLease(s.ID, alice, LeaseWriter, 0); err != nil {
		t.Fatal(err)
	}
	_, dst, err := c.CarveReplacement(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CommitReplacement(s, dst, false); err != nil {
		t.Fatal(err)
	}
	dn, _ := c.Node(dst.Node)
	line := bytes.Repeat([]byte{2}, mem.CacheLineSize)
	if err := dn.WriteAtFrom(bob, dst.RemoteOff, line); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("foreign write to migrated member: got %v, want lease-fenced", err)
	}
	if err := dn.WriteAtFrom(alice, dst.RemoteOff, line); err != nil {
		t.Fatalf("holder write to migrated member: %v", err)
	}
}

// TestReleasedExtentKeepsNoGuard pins ReleaseSlab's contract: a released
// extent re-carved at the same offset inherits no seal, no lease fence and
// no capture from the slab that held it before. A plain write and a log
// batch by a runtime that is not the old fence holder both land, and the
// old capture records neither.
func TestReleasedExtentKeepsNoGuard(t *testing.T) {
	const size, alice, bob = 1 << 16, 7, 8
	c, _ := leaseRack(t, 1)
	n := c.nodes[0].node
	s, err := allocOne(c, size)
	if err != nil {
		t.Fatal(err)
	}
	off := s.RemoteOff
	n.Seal(off, size)
	n.LeaseFence(off, size, alice)
	n.StartCapture(off, size, mem.PageSize)

	if err := c.ReleaseSlab(s); err != nil {
		t.Fatal(err)
	}
	if again, err := allocOne(c, size); err != nil || again.RemoteOff != off {
		t.Fatalf("re-carve = %+v, %v; want the released offset %d", again, err, off)
	}
	line := bytes.Repeat([]byte{0xB0}, mem.CacheLineSize)
	if err := n.WriteAtFrom(bob, off, line); err != nil {
		t.Fatalf("write into the re-carved extent: %v", err)
	}
	logged := bytes.Repeat([]byte{0xB1}, mem.CacheLineSize)
	batch := []cllog.Entry{{RemoteOff: off + mem.PageSize, Data: logged}}
	if _, _, err := n.UnpackLogFrom(bob, packInto(t, n, batch)); err != nil {
		t.Fatalf("log batch into the re-carved extent: %v", err)
	}
	pool := n.PoolBytes()
	if !bytes.Equal(pool[off:off+mem.CacheLineSize], line) || !bytes.Equal(pool[off+mem.PageSize:off+mem.PageSize+mem.CacheLineSize], logged) {
		t.Fatal("a write into the re-carved extent did not land")
	}
	if got := n.DrainCapture(off, size); got != nil {
		t.Fatalf("released capture still records writes: %v", got)
	}
}

// TestReleaseClearsGuardsOnBothFabrics pins that a release reaches the
// node on either fabric: an extent released through the controller and
// re-carved at the same offset admits another runtime's write whether its
// node registered in process or as a daemon over TCP, where the slab's
// release travels over the wire too. Two histories leave a guard behind
// for the release to clear: a lapsed writer whose fence stays armed until
// a successor takes over (none does; the group is released), and a
// migration source retired with its writer's fence, a seal and a capture
// still on it.
func TestReleaseClearsGuardsOnBothFabrics(t *testing.T) {
	// A fabric builds a rack of n nodes and says how a runtime releases a
	// slab on it.
	type fabric func(t *testing.T, n int) (*Controller, func(slab.Slab) error, []*MemoryNode)
	fabrics := map[string]fabric{
		"in-process": func(t *testing.T, n int) (*Controller, func(slab.Slab) error, []*MemoryNode) {
			c := NewController()
			nodes := make([]*MemoryNode, n)
			for i := range nodes {
				nodes[i] = NewMemoryNode(i, 8<<20)
				if err := c.Register(nodes[i]); err != nil {
					t.Fatal(err)
				}
			}
			return c, c.ReleaseSlab, nodes
		},
		"tcp": func(t *testing.T, n int) (*Controller, func(slab.Slab) error, []*MemoryNode) {
			c, cs, nodes := tcpRack(t, n)
			cc := DialController(cs.Addr())
			t.Cleanup(func() { cc.Close() })
			return c, cc.ReleaseSlab, nodes
		},
	}
	const size, writer, reader, next = 1 << 20, 7, 8, 9
	// Each history releases a slab and returns it; the rack has the node
	// count the history needs for the re-carve to land on the same node.
	histories := []struct {
		name  string
		nodes int
		run   func(t *testing.T, c *Controller, release func(slab.Slab) error, nodes []*MemoryNode) slab.Slab
	}{
		{"lapsed-writer", 1, func(t *testing.T, c *Controller, release func(slab.Slab) error, _ []*MemoryNode) slab.Slab {
			now := time.Unix(1000, 0)
			c.SetLeaseClock(func() time.Time { return now })
			c.SetLeaseTTL(time.Second)
			s, err := allocOne(c, size)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.AcquireLease(s.ID, writer, LeaseWriter, 0); err != nil {
				t.Fatal(err)
			}
			now = now.Add(2 * time.Second)
			if _, err := c.AcquireLease(s.ID, reader, LeaseReader, 0); err != nil {
				t.Fatal(err)
			}
			for _, r := range []uint64{writer, reader} {
				if err := c.ReleaseLease(s.ID, r); err != nil {
					t.Fatal(err)
				}
			}
			if err := release(s); err != nil {
				t.Fatal(err)
			}
			if _, err := c.SlabPlacements(s.ID); err == nil {
				t.Errorf("group %d outlived the release of its one member", s.ID)
			}
			return s
		}},
		{"retired-source", 2, func(t *testing.T, c *Controller, _ func(slab.Slab) error, nodes []*MemoryNode) slab.Slab {
			src, err := allocOne(c, size)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.AcquireLease(src.ID, writer, LeaseWriter, 0); err != nil {
				t.Fatal(err)
			}
			// The engine's last steps on a live source: seal, capture.
			nodes[src.Node].Seal(src.RemoteOff, src.Size)
			nodes[src.Node].StartCapture(src.RemoteOff, src.Size, mem.PageSize)
			_, target, err := c.CarveReplacement(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CommitReplacement(src, target, false); err != nil {
				t.Fatal(err)
			}
			if err := c.AbandonExtent(src); err != nil {
				t.Fatal(err)
			}
			return src
		}},
	}
	line := bytes.Repeat([]byte{0xC9}, mem.CacheLineSize)
	for fabric, rack := range fabrics {
		for _, h := range histories {
			t.Run(fabric+"/"+h.name, func(t *testing.T) {
				c, release, nodes := rack(t, h.nodes)
				old := h.run(t, c, release, nodes)
				members, err := c.AllocSlab(size, h.nodes)
				if err != nil {
					t.Fatal(err)
				}
				i := slices.IndexFunc(members, func(m slab.Slab) bool { return m.Node == old.Node })
				if i < 0 || members[i].RemoteOff != old.RemoteOff {
					t.Fatalf("re-carve = %+v, want node %d offset %d again", members, old.Node, old.RemoteOff)
				}
				if err := nodes[old.Node].WriteAtFrom(next, old.RemoteOff, line); err != nil {
					t.Fatalf("runtime %d's write into the re-carved extent: %v", next, err)
				}
				if got := nodes[old.Node].DrainCapture(old.RemoteOff, old.Size); got != nil {
					t.Fatalf("the released extent's capture still records writes: %v", got)
				}
			})
		}
	}
}
