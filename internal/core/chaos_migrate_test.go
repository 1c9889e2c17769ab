package core

import (
	"testing"

	"kona/internal/cluster"
	"kona/internal/mem"
)

// Migration chaos (DESIGN.md §13): live-migrate the slabs under a
// running workload — including killing the migration target mid-copy —
// and prove no acknowledged write is lost, torn, or read stale. These
// ride the same harness as the repair chaos tests: host-side mirror,
// byte-verification through the runtime, KONA_CHAOS_SEED rotation under
// `make chaos`.

// TestMigrateUnderLoadNoLostWrites runs an unreplicated (R=1) workload
// while the migration engine repeatedly moves its slabs between nodes.
// R=1 is the hard mode: a write bounced by the seal has no surviving
// replica to lean on, so the sealed-retain path (retain + sealed member +
// fetch-time placement refresh + remap + catching-up fence) is the only
// thing standing between the workload and data loss.
func TestMigrateUnderLoadNoLostWrites(t *testing.T) {
	seed := chaosSeed(t, 4)
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize // constant eviction churn
	k := NewKona(cfg, ctrl)
	w := newChaosWorkload(t, k, ctrl, seed, 128)

	eng := cluster.NewReplaceEngine(ctrl, ctrl.Dial,
		cluster.ReplaceConfig{HotRatio: 1.1, RetireSweeps: 2})

	// Interleave workload bursts with sweeps: every committed move seals
	// the old extent while the runtime still holds the stale placement,
	// so the next ship bounces and must recover via refresh + remap. The
	// bounce is driven, not hoped for: left to the 10%-Sync mix, a Sync
	// (which refreshes placements first) usually beats the first ship, and
	// about one seed in four never exercised the sealed-retain path.
	moves := 0
	for cycle := 0; cycle < 10; cycle++ {
		w.run(400)
		ctrl.PullNodeLoads() // sim-mode load feed: scrape node counters each sweep
		if n := eng.SweepOnce(); n > 0 {
			moves += n
			w.runUntilShip()
		}
	}
	if moves == 0 {
		t.Fatalf("migration engine never moved a slab under load")
	}

	w.run(300)
	w.sync()
	w.verifyThroughRuntime()

	fs := k.FailureStats()
	if fs.SealedRetains == 0 {
		t.Errorf("no eviction ever bounced off a seal across %d moves — the sealed-retain path went unexercised", moves)
	}
	if fs.PlacementRefreshes == 0 {
		t.Errorf("runtime never refreshed placements after a migration flip")
	}
	if fs.RemappedEntries == 0 {
		t.Errorf("no retained entries were remapped onto migrated extents")
	}
	if st := eng.Stats(); st.Migrate.Flips != uint64(moves) {
		t.Errorf("engine stats disagree with sweep returns: %+v vs %d", st, moves)
	}
	// Migration moves retire once settled: the vacated windows get
	// re-carved, and a surviving move would rewrite the next tenant's
	// entries. (Repair moves persist: TestTwoGroupsOneDeadNode.)
	k.evict.flushMu.Lock()
	if n := len(k.evict.moves); n != 0 {
		t.Errorf("%d migration moves outlived their settle", n)
	}
	k.evict.flushMu.Unlock()
	if fs.SuspectMembers != 0 {
		t.Errorf("%d members still catching up after the final drain", fs.SuspectMembers)
	}
}

// killTarget wraps the in-process node handles and fails the migration
// target node on the first write of each armed window — the mid-copy
// crash.
type killTarget struct {
	ctrl   *cluster.Controller
	source int // the node whose slab is being migrated; never killed
	armed  bool
	killed int
}

func (k *killTarget) dial(node int, epoch uint64) (cluster.NodeAccess, error) {
	n, err := k.ctrl.Dial(node, epoch)
	return killTargetNode{NodeAccess: n, k: k, node: node}, err
}

type killTargetNode struct {
	cluster.NodeAccess
	k    *killTarget
	node int
}

func (n killTargetNode) WriteVec(off uint64, segs ...[]byte) error {
	if k := n.k; k.armed && n.node != k.source {
		if mn, ok := k.ctrl.Node(n.node); ok {
			mn.Fail()
		}
		k.armed = false
		k.killed++
	}
	return n.NodeAccess.WriteVec(off, segs...)
}

// TestChaosKillDuringMigration crashes the migration target mid-copy:
// the engine must unwind (placement untouched, source unsealed, target
// extent abandoned), the workload must keep running on the source, and
// once the target recovers the next sweep must complete the move — with
// every byte intact at the end.
func TestChaosKillDuringMigration(t *testing.T) {
	seed := chaosSeed(t, 5)
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	k := NewKona(cfg, ctrl)
	w := newChaosWorkload(t, k, ctrl, seed, 64)
	w.run(500) // populate remote memory

	members := groupMembersFor(k, w.base)
	if len(members) != 1 {
		t.Fatalf("members = %+v, want one R=1 member", members)
	}
	source := members[0].Node

	tr := &killTarget{ctrl: ctrl, source: source, armed: true}
	eng := cluster.NewReplaceEngine(ctrl, tr.dial, cluster.ReplaceConfig{HotRatio: 1.1, RetireSweeps: 1})
	// The sim-mode load feed: scrape node counters before each sweep.
	sweep := func() int {
		ctrl.PullNodeLoads()
		return eng.SweepOnce()
	}

	// First sweep: the target dies on the first copy write. The move must
	// fail cleanly, leaving the placement where it was.
	if moves := sweep(); moves != 0 {
		t.Fatalf("sweep committed %d moves through a dead target", moves)
	}
	if tr.killed != 1 {
		t.Fatalf("kill never fired (killed=%d)", tr.killed)
	}
	if st := eng.Stats(); st.Migrate.Failures == 0 {
		t.Fatalf("aborted migration not counted: %+v", st)
	}
	after := groupMembersFor(k, w.base)
	if len(after) != 1 || after[0].Node != source {
		t.Fatalf("placement changed by an aborted migration: %+v", after)
	}

	// The workload keeps running against the unsealed source.
	w.run(400)
	w.sync()

	// Recover every failed node; the next sweeps complete the move.
	for _, id := range ctrl.NodeIDs() {
		if n, ok := ctrl.Node(id); ok && n.Failed() {
			n.Recover()
		}
	}
	moved := 0
	for i := 0; i < 20 && moved == 0; i++ {
		w.run(100)
		moved += sweep()
	}
	if moved == 0 {
		t.Fatalf("migration never completed after target recovery")
	}

	w.run(300)
	w.sync()
	w.verifyThroughRuntime()
}
