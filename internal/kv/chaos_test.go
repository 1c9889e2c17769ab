package kv

import (
	"os"
	"strconv"
	"testing"
	"time"

	"kona/internal/cluster"
)

// TestKVChaosKillReplicaRepairVerify is the service-level chaos run
// (DESIGN.md §12): kona-kvd over a real TCP cluster with Replicas=2,
// one memory node killed in the middle of an open-loop mixed workload,
// the controller-side repair machinery healing the rack, and the load
// generator's verify pass proving afterwards that no acknowledged set
// was lost, torn, or regressed. `make chaos` runs this under -race with
// a rotating seed.
func TestKVChaosKillReplicaRepairVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short")
	}
	seed := int64(1)
	if s := os.Getenv("KONA_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("KONA_CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
		t.Logf("chaos seed %d", seed)
	}

	// Three nodes, two replicas: killing any node leaves a surviving
	// copy of every slab plus a spare to repair onto. Small cache keeps
	// values remote; a write-heavy mix keeps dirty lines in flight.
	rig := newKVRig(t, 3, 2<<20, 2)
	stopSync := make(chan struct{})
	defer close(stopSync)
	// Background sync keeps shipping during the outage; remote-
	// unavailable errors there are expected and retried next tick.
	go rig.server.RunSyncLoop(20*time.Millisecond, stopSync, nil)

	eng, err := NewEngine(LoadConfig{
		Workload: WorkloadConfig{
			Keys:         50_000,
			ZipfS:        1.1,
			ReadFraction: 0.5,
			RatePerSec:   15_000,
			Seed:         seed,
		},
		Conns:  6,
		Ops:    30_000,
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	resCh := make(chan Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := eng.Run(rig.addr)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	// Let the run warm up, then kill one memory-node daemon mid-load.
	// The seed rotates which node dies, but the victim must actually
	// hold slabs — a node the allocator never touched degrades nothing.
	for eng.Issued() < 8_000 {
		time.Sleep(10 * time.Millisecond)
	}
	victim := int(uint64(seed) % 3)
	for i := 0; i < 3; i++ {
		cand := (victim + i) % 3
		if n, ok := rig.ctrl.Node(cand); ok {
			if _, used := n.Capacity(); used > 0 {
				victim = cand
				break
			}
		}
	}
	t.Logf("killing memory node %d at %d ops issued", victim, eng.Issued())
	rig.nodes[victim].Close()

	// Degraded phase: let the runtime notice (failed ships report the
	// outage; the health sweep is the backstop) while load continues.
	time.Sleep(300 * time.Millisecond)
	rig.ctrl.HealthSweep()
	if rig.ctrl.DegradedCount() == 0 {
		t.Fatal("node loss not detected: no slabs degraded")
	}

	// Repair over the wire: copy each degraded slab from its surviving
	// replica onto a spare node through the daemons' data RPCs.
	engine := cluster.NewReplaceEngine(rig.ctrl, rig.ctrl.Dial,
		cluster.ReplaceConfig{RepairBytesPerSec: 512 << 20})
	for i := 0; rig.ctrl.DegradedCount() > 0; i++ {
		if i > 200 {
			t.Fatalf("repair did not converge: %d slabs still degraded", rig.ctrl.DegradedCount())
		}
		engine.RepairOnce()
	}
	if st := engine.Stats(); st.Repair.Flips == 0 {
		t.Fatalf("repair drained with zero placement flips: %+v", st)
	}
	t.Logf("repair done at %d ops issued: %+v", eng.Issued(), engine.Stats())

	// The rest of the load runs on the healed rack.
	var res Result
	select {
	case res = <-resCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(2 * time.Minute):
		t.Fatal("load run hung")
	}

	t.Logf("chaos: %d/%d completed, %d errors, verify: %d keys, %d missing, %d torn, %d stale",
		res.Completed, res.Issued, res.Errors, res.VerifiedKeys, res.Missing, res.Torn, res.Stale)
	t.Logf("failure stats: %+v", rig.rt.FailureStats())

	// The acceptance bar: zero acknowledged writes lost or torn. Errors
	// during the outage are fine (unacknowledged ops don't count); the
	// verify pass runs after repair, so every ack must be honored.
	if res.VerifiedKeys == 0 {
		t.Fatal("verify checked nothing")
	}
	if res.Missing != 0 || res.Torn != 0 || res.Stale != 0 {
		t.Errorf("acknowledged writes violated: %d missing, %d torn, %d stale",
			res.Missing, res.Torn, res.Stale)
	}
	// The store itself must have seen no corruption.
	if st := rig.store.Stats(); st.Corrupt != 0 {
		t.Errorf("%d corrupt records", st.Corrupt)
	}
	// And the outage must actually have been exercised end to end.
	fs := rig.rt.FailureStats()
	if fs.ShipFailureReports == 0 && fs.Failovers == 0 {
		t.Errorf("outage never touched the data path: %+v", fs)
	}
	// The repaired replica's read fence must have lifted: the catch-up
	// drain re-ships the retained entries within a sync period or two,
	// and a run this long settles many times over.
	if fs.SuspectMembers != 0 {
		t.Errorf("%d repaired members still fenced from reads at end of run", fs.SuspectMembers)
	}
}
