package core

import (
	"fmt"
	"testing"

	"kona/internal/cluster"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// Tests for the repaired-replica read fence: after a repair flip, the
// replacement member holds a copy taken from the survivor *before* the
// retained dirty lines were replayed onto it, so translation must not
// route reads there until the evictor's catch-up drain completes. The
// kv-level chaos run found the hole (concurrent fetches racing the
// post-flip Sync read the incomplete copy and cached stale pages); these
// tests pin the mechanism at the translation layer.

// readMemberID resolves addr through the read path and returns the node
// the fetch would hit.
func readMemberID(t *testing.T, k *Kona, addr mem.Addr) int {
	t.Helper()
	l, _, err := k.rm.translate(addr)
	if err != nil {
		t.Fatal(err)
	}
	return l.id()
}

func suspectCount(k *Kona) int { return k.rm.inState(memberCatchingUp) }

// memberAt returns the table row of the group backing addr at slot.
func memberAt(t *testing.T, k *Kona, addr mem.Addr, slot int) *member {
	t.Helper()
	k.rm.mu.Lock()
	defer k.rm.mu.Unlock()
	s, ok := k.rm.alloc.SlabFor(addr)
	if !ok {
		t.Fatalf("no slab for %v", addr)
	}
	return k.rm.replicas[s.ID].members[slot]
}

// TestRepairedReplicaSuspectUntilDrained walks the full outage → repair
// → refresh sequence and asserts the repaired member is fenced from
// reads exactly until the retained entries have been flushed onto it.
func TestRepairedReplicaSuspectUntilDrained(t *testing.T) {
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.Replicas = 2
	k := NewKona(cfg, ctrl)
	w := newChaosWorkload(t, k, ctrl, 11, 64)
	w.run(800)
	w.sync()

	// Kill the preferred read member, so the repaired copy lands in the
	// slot translation tries first — the arrangement that exposed the bug.
	members := groupMembersFor(k, w.base)
	if len(members) != 2 {
		t.Fatalf("members = %+v, want 2 replicas", members)
	}
	victim, survivor := members[0], members[1]
	vn, ok := ctrl.Node(victim.Node)
	if !ok {
		t.Fatalf("victim node %d not registered", victim.Node)
	}
	vn.Fail()

	// Degraded phase: accumulate retained entries for the dead member.
	w.run(600)
	ctrl.HealthSweep()
	if ctrl.DegradedCount() == 0 {
		t.Fatal("victim loss not detected")
	}
	engine := cluster.NewReplaceEngine(ctrl, ctrl.Dial,
		cluster.ReplaceConfig{RepairBytesPerSec: 512 << 20})
	drainRepairs(t, engine, ctrl)

	// The refresh installs the new membership and must fence the
	// repaired member in the same breath: no flush has run yet, so its
	// copy is still missing the retained lines.
	if changed, err := k.RefreshPlacements(); err != nil || !changed {
		t.Fatalf("refresh: changed=%v err=%v", changed, err)
	}
	repaired := groupMembersFor(k, w.base)[0]
	if repaired.Node == victim.Node && repaired.Epoch == victim.Epoch {
		t.Fatalf("member 0 not flipped: %+v", repaired)
	}
	if n := suspectCount(k); n == 0 {
		t.Fatal("repaired member not marked suspect after refresh")
	}
	if got := readMemberID(t, k, w.base); got != survivor.Node {
		t.Fatalf("read routed to node %d before catch-up, want survivor %d", got, survivor.Node)
	}

	// One Sync drains the remapped entries onto the repaired member;
	// that settles the move and lifts the fence.
	w.sync()
	if n := suspectCount(k); n != 0 {
		t.Fatalf("%d members still suspect after catch-up drain", n)
	}
	if got := readMemberID(t, k, w.base); got != repaired.Node {
		t.Fatalf("read routed to node %d after catch-up, want repaired %d", got, repaired.Node)
	}

	// And the healed rack is byte-correct end to end.
	w.run(400)
	w.sync()
	w.verifyReplicas(2)
	w.verifyThroughRuntime()
}

// TestCatchUpBatchLargerThanLog pins the chunked catch-up ship: entries
// retained across an outage are bounded by the outage's length, not by
// the log budget, so the post-repair batch can exceed the pack buffer.
// It must ship as several wire logs — before chunking, the pack failed
// forever, the batch wedged, and the repaired replica stayed fenced
// (and incomplete) for the rest of the process's life.
func TestCatchUpBatchLargerThanLog(t *testing.T) {
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.Replicas = 2
	cfg.LogBytes = 4 << 10 // force even a short outage to out-retain the log
	k := NewKona(cfg, ctrl)
	w := newChaosWorkload(t, k, ctrl, 23, 64)
	w.run(500)
	w.sync()

	members := groupMembersFor(k, w.base)
	vn, ok := ctrl.Node(members[0].Node)
	if !ok {
		t.Fatalf("victim node %d not registered", members[0].Node)
	}
	vn.Fail()
	w.run(800) // retain well past LogBytes for the dead member
	ctrl.HealthSweep()
	if ctrl.DegradedCount() == 0 {
		t.Fatal("victim loss not detected")
	}
	engine := cluster.NewReplaceEngine(ctrl, ctrl.Dial,
		cluster.ReplaceConfig{RepairBytesPerSec: 512 << 20})
	drainRepairs(t, engine, ctrl)
	if changed, err := k.RefreshPlacements(); err != nil || !changed {
		t.Fatalf("refresh: changed=%v err=%v", changed, err)
	}
	fs := k.FailureStats()
	if fs.RemappedEntries == 0 {
		t.Fatal("no entries retained across the outage — the scenario never formed")
	}

	// The catch-up drain must clear the fence despite the oversized batch.
	w.sync()
	if fs := k.FailureStats(); fs.SuspectMembers != 0 {
		t.Fatalf("%d members still fenced: catch-up batch wedged", fs.SuspectMembers)
	}
	w.run(300)
	w.sync()
	w.verifyReplicas(2)
	w.verifyThroughRuntime()
}

// TestSuspectFallbackOnDoubleFault pins the last-resort path: when every
// non-suspect member is dead, translation reads the suspect copy rather
// than failing the fetch — mostly-caught-up data beats no data.
func TestSuspectFallbackOnDoubleFault(t *testing.T) {
	ctrl := newCluster(2)
	cfg := smallConfig()
	cfg.Replicas = 2
	k := NewKona(cfg, ctrl)
	addr, err := k.Malloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(0, addr, []byte("fence")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sync(0); err != nil {
		t.Fatal(err)
	}
	members := groupMembersFor(k, addr)
	if len(members) != 2 {
		t.Fatalf("members = %+v, want 2 replicas", members)
	}

	// Fence member 0: reads must fail over to member 1.
	k.rm.notify(memberAt(t, k, addr, 0), evFlip)
	if got := readMemberID(t, k, addr); got != members[1].Node {
		t.Fatalf("read routed to node %d, want non-suspect %d", got, members[1].Node)
	}

	// Kill member 1: the suspect copy is all that is left, and the read
	// path must still serve from it.
	n1, ok := ctrl.Node(members[1].Node)
	if !ok {
		t.Fatalf("node %d not registered", members[1].Node)
	}
	n1.Fail()
	if got := readMemberID(t, k, addr); got != members[0].Node {
		t.Fatalf("read routed to node %d under double fault, want suspect %d", got, members[0].Node)
	}
}

// TestMemberTransitionTable walks every (state, event) pair of the
// transition function against an independent copy of the table, and
// checks the observability contract: a change of state is one core.member
// event naming the member, the edge and the cause; a no-op is silent.
func TestMemberTransitionTable(t *testing.T) {
	const cur, cat, sea = memberCurrent, memberCatchingUp, memberSealed
	want := map[memberState]map[memberEvent]memberState{
		cur: {evFlip: cat, evSeal: sea, evRefresh: cur, evDrained: cur},
		cat: {evFlip: cat, evSeal: sea, evRefresh: cat, evDrained: cur},
		sea: {evFlip: cat, evSeal: sea, evRefresh: cur, evDrained: sea},
	}
	cfg := smallConfig()
	reg := telemetry.New(64)
	cfg.Metrics = reg
	rm := newResourceManager(cfg.withDefaults(), nil, nil)
	for from, row := range want {
		for ev, to := range row {
			m := &member{Slab: Slab{ID: 7, Node: 3, Epoch: 2}, slot: 1, link: deadLink{}, state: from}
			before := reg.Trace().Total()
			rm.notify(m, ev)
			if m.state != to {
				t.Errorf("%s + %s = %s, want %s", memberStateNames[from], memberEventNames[ev],
					memberStateNames[m.state], memberStateNames[to])
			}
			emitted := reg.Trace().Total() - before
			if to == from {
				if emitted != 0 {
					t.Errorf("%s + %s is a no-op but emitted %d events", memberStateNames[from], memberEventNames[ev], emitted)
				}
				continue
			}
			evs := reg.Trace().Events()
			wantDetail := fmt.Sprintf("group=7 slot=1 node=3/2 %s→%s cause=%s",
				memberStateNames[from], memberStateNames[to], memberEventNames[ev])
			if last := evs[len(evs)-1]; emitted != 1 || last.Name != "core.member" || last.Detail != wantDetail {
				t.Errorf("%s + %s emitted %d events, last %s %q; want one core.member %q",
					memberStateNames[from], memberEventNames[ev], emitted, last.Name, last.Detail, wantDetail)
			}
		}
	}
	// Without a registry the transition still happens and formats nothing.
	cfg.Metrics = nil
	rm = newResourceManager(cfg.withDefaults(), nil, nil)
	m := &member{link: deadLink{}}
	rm.notify(m, evSeal)
	if m.state != sea {
		t.Errorf("unobserved transition did not apply: %s", memberStateNames[m.state])
	}
}

// TestPerMemberFencing pins that member state fences one member, not a
// node: while one group's member on node X is catching up, or sealed,
// another group's healthy member on X keeps serving its reads (Failovers
// does not move for it), and the fenced group reads its other replica.
func TestPerMemberFencing(t *testing.T) {
	const slabPages = 64
	rig := func(t *testing.T) (*Kona, *cluster.Controller, []*chaosWorkload) {
		ctrl := newCluster(4)
		cfg := smallConfig()
		cfg.LocalCacheBytes = 8 * mem.PageSize
		cfg.Replicas = 2
		cfg.SlabSize = slabPages * mem.PageSize
		k := NewKona(cfg, ctrl)
		var ws []*chaosWorkload
		for i := 0; i < 4; i++ {
			w := newChaosWorkload(t, k, ctrl, int64(31+i), slabPages)
			w.run(200)
			ws = append(ws, w)
		}
		for _, w := range ws {
			w.sync()
		}
		return k, ctrl, ws
	}
	// read translates addr and reports the node a fetch would hit and
	// whether the translation counted as a failover.
	read := func(t *testing.T, k *Kona, addr mem.Addr) (node int, failedOver bool) {
		before := k.FailureStats().Failovers
		node = readMemberID(t, k, addr)
		return node, k.FailureStats().Failovers != before
	}

	t.Run("catching-up", func(t *testing.T) {
		k, ctrl, ws := rig(t)
		// Kill the node holding ws[0]'s primary; its replacement lands on a
		// node that other, untouched groups also live on.
		victim := groupMembersFor(k, ws[0].base)[0]
		vn, _ := ctrl.Node(victim.Node)
		vn.Fail()
		for _, w := range ws {
			w.run(150)
		}
		ctrl.HealthSweep()
		drainRepairs(t, cluster.NewReplaceEngine(ctrl, ctrl.Dial,
			cluster.ReplaceConfig{RepairBytesPerSec: 512 << 20}), ctrl)
		if changed, err := k.RefreshPlacements(); err != nil || !changed {
			t.Fatalf("refresh: changed=%v err=%v", changed, err)
		}
		// Find a flipped group and an untouched group whose primary shares
		// the flipped member's node.
		var flipped, other *chaosWorkload
		var x *member
		for _, f := range ws {
			if m := memberAt(t, k, f.base, 0); m.state == memberCatchingUp {
				for _, o := range ws {
					om := memberAt(t, k, o.base, 0)
					if o != f && om.state == memberCurrent && om.link.key() == m.link.key() {
						flipped, other, x = f, o, m
					}
				}
			}
		}
		if flipped == nil {
			t.Fatal("no repaired member shares a node with another group's primary (placement changed?)")
		}
		if node, failedOver := read(t, k, other.base); node != x.Node || failedOver {
			t.Errorf("untouched group read node %d (failover=%v), want its own healthy member on node %d",
				node, failedOver, x.Node)
		}
		survivor := groupMembersFor(k, flipped.base)[1].Node
		if node, _ := read(t, k, flipped.base); node != survivor {
			t.Errorf("flipped group read node %d before its catch-up drained, want survivor %d", node, survivor)
		}
		flipped.sync()
		if node, failedOver := read(t, k, flipped.base); node != x.Node || failedOver {
			t.Errorf("flipped group read node %d (failover=%v) after the drain, want repaired member on %d",
				node, failedOver, x.Node)
		}
		for _, w := range ws {
			w.verifyReplicas(2)
			w.verifyThroughRuntime()
		}
	})

	t.Run("sealed", func(t *testing.T) {
		k, ctrl, ws := rig(t)
		// Seal ws[0]'s primary extent, as a migration would, and find
		// another group whose primary lives on the same node.
		sealedGroup := ws[0]
		x := memberAt(t, k, sealedGroup.base, 0)
		var other *chaosWorkload
		for _, o := range ws[1:] {
			if memberAt(t, k, o.base, 0).link.key() == x.link.key() {
				other = o
			}
		}
		if other == nil {
			t.Fatal("no second group has its primary on the sealed member's node (placement changed?)")
		}
		xn, _ := ctrl.Node(x.Node)
		xn.Seal(x.RemoteOff, x.Size)
		// Only the sealed group writes, so only its lines bounce.
		var err error
		if sealedGroup.now, err = k.Write(sealedGroup.now, sealedGroup.base, []byte("bounce")); err != nil {
			t.Fatal(err)
		}
		copy(sealedGroup.mirror, "bounce")
		sealedGroup.sync()
		if fs := k.FailureStats(); fs.SealedRetains == 0 {
			t.Fatal("ship never bounced off the seal")
		}
		if x.state != memberSealed {
			t.Fatalf("member whose lines bounced is %s, want sealed", memberStateNames[x.state])
		}
		if node, failedOver := read(t, k, other.base); node != x.Node || failedOver {
			t.Errorf("other group read node %d (failover=%v), want its own healthy member on node %d",
				node, failedOver, x.Node)
		}
		replica := groupMembersFor(k, sealedGroup.base)[1].Node
		if node, _ := read(t, k, sealedGroup.base); node != replica {
			t.Errorf("sealed group read node %d, want the replica that took the ship (%d)", node, replica)
		}
		// The migration unwinds: the next fetch refreshes (dropping the
		// fence), re-flushes, and the retained lines land.
		xn.Unseal(x.RemoteOff, x.Size)
		coldCache(k)
		sealedGroup.verifyThroughRuntime()
		sealedGroup.sync()
		if x.state != memberCurrent {
			t.Errorf("member is %s after the seal lifted, want current", memberStateNames[x.state])
		}
		sealedGroup.verifyReplicas(2)
	})
}

// failingPlacements is a controller whose SlabPlacements fails while fail
// is set, as a controller that drops a refresh's lookups part-way would.
type failingPlacements struct {
	control
	fail bool
}

func (c *failingPlacements) SlabPlacements(group uint64) ([]Slab, error) {
	if c.fail {
		return nil, fmt.Errorf("injected placement lookup failure for group %d", group)
	}
	return c.control.SlabPlacements(group)
}

// TestFailedRefreshRetriedNextSync: a Sync whose placement refresh fails
// must leave the placement epoch unrecorded, so the next Sync refreshes
// again. Recording the epoch first let that next Sync skip the refresh and
// return nil while the group still held the dead member: its ships were
// withheld and retained, and the repaired replica never got this
// runtime's writes.
func TestFailedRefreshRetriedNextSync(t *testing.T) {
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.Replicas = 2
	k := NewKona(cfg, ctrl)
	w := newChaosWorkload(t, k, ctrl, 11, 64)
	w.run(800)
	w.sync()

	victim := groupMembersFor(k, w.base)[0]
	vn, ok := ctrl.Node(victim.Node)
	if !ok {
		t.Fatalf("victim node %d not registered", victim.Node)
	}
	vn.Fail()
	w.run(600)
	ctrl.HealthSweep()
	engine := cluster.NewReplaceEngine(ctrl, ctrl.Dial,
		cluster.ReplaceConfig{RepairBytesPerSec: 512 << 20})
	drainRepairs(t, engine, ctrl)

	fc := &failingPlacements{control: k.rm.ctrl, fail: true}
	k.rm.ctrl = fc
	var err error
	if w.now, err = k.Sync(w.now); err == nil {
		t.Fatal("Sync with a failing placement refresh returned nil")
	}
	fc.fail = false
	w.sync()
	if m := groupMembersFor(k, w.base)[0]; m.Node == victim.Node && m.Epoch == victim.Epoch {
		t.Fatalf("member 0 still the dead victim %+v after the next Sync: the refresh was never retried", m)
	}
	if n := suspectCount(k); n != 0 {
		t.Fatalf("%d members still suspect after the retried refresh's drain", n)
	}
	w.run(400)
	w.sync()
	w.verifyReplicas(2)
	w.verifyThroughRuntime()
}
