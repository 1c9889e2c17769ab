package core

import (
	"testing"

	"kona/internal/cluster"
	"kona/internal/mem"
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

func suspectCount(k *Kona) int {
	k.rm.mu.Lock()
	defer k.rm.mu.Unlock()
	return len(k.rm.suspect)
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
	engine := cluster.NewReplaceEngine(ctrl, cluster.LocalNodes(ctrl),
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
	engine := cluster.NewReplaceEngine(ctrl, cluster.LocalNodes(ctrl),
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
	key0 := linkKeyFor(members[0].Node, members[0].Epoch)
	k.rm.mu.Lock()
	k.rm.suspect[key0] = struct{}{}
	k.rm.mu.Unlock()
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
