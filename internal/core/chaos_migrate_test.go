package core

import (
	"math/rand"
	"sort"
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
// replica to lean on, so the sealed-retain path (retain + seal-notice +
// fetch-time placement refresh + remap + suspect fence) is the only
// thing standing between the workload and data loss.
func TestMigrateUnderLoadNoLostWrites(t *testing.T) {
	seed := chaosSeed(t, 4)
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize // constant eviction churn
	k := NewKona(cfg, ctrl)
	w := newChaosWorkload(t, k, ctrl, seed, 128)

	eng := cluster.NewMigrationEngine(ctrl, cluster.NewLocalMigrationTransport(ctrl),
		cluster.MigrationConfig{
			PullLoads:        true, // sim-mode load feed: scrape node counters each sweep
			HotRatio:         1.1,
			MaxDrainPasses:   4,
			RetireSweeps:     2,
			MaxMovesPerSweep: 1,
		})

	// Interleave workload bursts with sweeps: every committed move seals
	// the old extent while the runtime still holds the stale placement,
	// so the next ship bounces and must recover via refresh + remap. The
	// bounce is driven, not hoped for: left to the 10%-Sync mix, a Sync
	// (which refreshes placements first) usually beats the first ship, and
	// about one seed in four never exercised the sealed-retain path.
	moves := 0
	for cycle := 0; cycle < 10; cycle++ {
		w.run(400)
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
	if st := eng.Stats(); st.Moves != uint64(moves) {
		t.Errorf("engine stats disagree with sweep returns: %+v vs %d", st, moves)
	}
}

// killTargetTransport fails the migration target node on the first Write
// of each armed window — the mid-copy crash.
type killTargetTransport struct {
	*cluster.LocalMigrationTransport
	ctrl   *cluster.Controller
	source int // the node whose slab is being migrated; never killed
	armed  bool
	killed int
}

func (k *killTargetTransport) Write(node int, epoch uint64, off uint64, bufs [][]byte) error {
	if k.armed && node != k.source {
		if n, ok := k.ctrl.Node(node); ok {
			n.Fail()
		}
		k.armed = false
		k.killed++
	}
	return k.LocalMigrationTransport.Write(node, epoch, off, bufs)
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

	tr := &killTargetTransport{
		LocalMigrationTransport: cluster.NewLocalMigrationTransport(ctrl),
		ctrl:                    ctrl,
		source:                  source,
		armed:                   true,
	}
	eng := cluster.NewMigrationEngine(ctrl, tr, cluster.MigrationConfig{
		PullLoads:    true,
		HotRatio:     1.1,
		RetireSweeps: 1,
	})

	// First sweep: the target dies on the first copy write. The move must
	// fail cleanly, leaving the placement where it was.
	if moves := eng.SweepOnce(); moves != 0 {
		t.Fatalf("sweep committed %d moves through a dead target", moves)
	}
	if tr.killed != 1 {
		t.Fatalf("kill never fired (killed=%d)", tr.killed)
	}
	if st := eng.Stats(); st.Failures == 0 {
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
		moved += eng.SweepOnce()
	}
	if moved == 0 {
		t.Fatalf("migration never completed after target recovery")
	}

	w.run(300)
	w.sync()
	w.verifyThroughRuntime()
}

// TestMigrationDoesNotStarveFetchP99 is the bench-migrate guard (the
// migration twin of TestRepairDoesNotStarveFetchP99): fetch latency
// lives on the simulated-fabric virtual clock while migration copy
// traffic rides its own budgeted transport, so a concurrent 4MB live
// migration must not degrade the fetch p99 by 10% or more.
func TestMigrationDoesNotStarveFetchP99(t *testing.T) {
	seed := chaosSeed(t, 6)
	const pages = 128

	fetchP99 := func() simDurT {
		ctrl := newCluster(2)
		cfg := smallConfig()
		cfg.LocalCacheBytes = 8 * mem.PageSize
		k := NewKona(cfg, ctrl)
		w := newChaosWorkload(t, k, ctrl, seed, pages)
		w.run(600)
		w.sync()
		rng := rand.New(rand.NewSource(seed + 1))
		lat := make([]simDurT, 0, 2000)
		buf := make([]byte, 256)
		for i := 0; i < 2000; i++ {
			addr := w.base + mem.Addr(uint64(rng.Intn(pages))*mem.PageSize)
			done, err := k.Read(w.now, addr, buf)
			if err != nil {
				t.Fatal(err)
			}
			lat = append(lat, done-w.now)
			w.now = done
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}

	baseline := fetchP99()

	// Same sequence again with a real live migration moving a 4MB slab in
	// the background at 1MB/s — the copy outlives the measurement.
	mctrl := cluster.NewController()
	for i := 0; i < 2; i++ {
		if err := mctrl.Register(cluster.NewMemoryNode(i, 8<<20)); err != nil {
			t.Fatal(err)
		}
	}
	src, err := mctrl.AllocSlab(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Make the hosting node hot so the sweep picks its slab.
	mctrl.ReportLoad(src.Node, cluster.LoadSample{ReadBytes: 64 << 20})
	eng := cluster.NewMigrationEngine(mctrl, cluster.NewLocalMigrationTransport(mctrl),
		cluster.MigrationConfig{BytesPerSec: 1 << 20})
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		eng.SweepOnce()
	}()

	during := fetchP99()
	<-migDone
	if st := eng.Stats(); st.Moves != 1 {
		t.Fatalf("background migration did not complete: %+v", st)
	}

	if baseline <= 0 {
		t.Fatalf("degenerate baseline p99 %v", baseline)
	}
	if float64(during) >= float64(baseline)*1.10 {
		t.Fatalf("fetch p99 %v during migration vs %v baseline: degraded >= 10%%", during, baseline)
	}
}
