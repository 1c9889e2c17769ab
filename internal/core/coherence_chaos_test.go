package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kona/internal/cluster"
	"kona/internal/mem"
)

// Cross-runtime consistency harness (DESIGN.md §14): one writer and K
// reader runtimes — separate Kona instances with separate caches —
// share a placement group over a live TCP rack. The writer publishes
// versioned records; the readers poll invalidations and must never
// observe a torn record (payload from one version under another's
// header), a per-slot version regression, or — after the final publish
// — anything but the final round. Mid-run a replica memnode is killed
// (seed-picked) and the slab repaired onto the spare, so the checks
// hold across failover, re-replication, and the lease table's fence
// carry-through. `make chaos` runs this under -race with a rotating
// KONA_CHAOS_SEED.

const (
	cohSlots      = 16  // one record per page: a record never spans pages
	cohRecordSize = 256 // 8-byte version header + deterministic payload
	cohFinalRound = 24
	cohKillRound  = 8 // victim dies after this round's publish
	cohHealRound  = 10
)

// cohRecord is the one true record for (slot, version): any observed
// record must byte-equal the regenerated one for its own header
// version, which catches torn reads and lost lines in one comparison.
func cohRecord(slot int, version uint64) []byte {
	rec := make([]byte, cohRecordSize)
	binary.BigEndian.PutUint64(rec, version)
	rng := rand.New(rand.NewSource(int64(version)<<8 ^ int64(slot)))
	rng.Read(rec[8:])
	return rec
}

func TestChaosCoherenceReadersOverWire(t *testing.T) {
	seed := chaosSeed(t, 4)
	const readers = 2
	const leaseTTL = time.Second

	// Rack: controller + 3 memnode daemons over real sockets; the chaos
	// hand kills a daemon by closing its listener (a dead process, the
	// failure mode health probes detect over the wire).
	ctrl := cluster.NewController()
	ctrl.SetLeaseTTL(leaseTTL)
	cs, err := cluster.ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	t.Cleanup(func() { cc.Close() })
	var srvs []*cluster.MemoryNodeServer
	for i := 0; i < 3; i++ {
		node := cluster.NewMemoryNode(i, 64<<20)
		ns, err := cluster.ServeMemoryNode(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(i, 64<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, ns)
	}
	engine := cluster.NewReplaceEngine(ctrl, ctrl.Dial, cluster.ReplaceConfig{RepairBytesPerSec: 512 << 20})

	cfg := smallConfig()
	cfg.Replicas = 2
	w := NewKonaTCPWith(cfg, cs.Addr(), chaosTr())
	var wnow simDurT

	// Round 1: seed every slot, share the group, flush + publish, so the
	// readers attach onto a fully published region.
	base, err := w.Malloc(cohSlots * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < cohSlots; slot++ {
		wnow = mustWrite(t, w, wnow, base+mem.Addr(slot)*mem.PageSize, cohRecord(slot, 1))
	}
	group, err := w.ShareWriter(base)
	if err != nil {
		t.Fatal(err)
	}
	if wnow, err = w.Sync(wnow); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for ri := 0; ri < readers; ri++ {
		r := NewKonaTCPWith(cfg, cs.Addr(), chaosTr())
		rbase, rsize, err := r.AttachReader(group)
		if err != nil {
			t.Fatalf("reader %d attach: %v", ri, err)
		}
		if base < rbase || base+cohSlots*mem.PageSize > rbase+mem.Addr(rsize) {
			t.Fatalf("reader %d: region [%v,+%d pages) outside attached [%v,+%d)", ri, base, cohSlots, rbase, rsize)
		}
		wg.Add(1)
		go func(ri int, r *Kona) {
			defer wg.Done()
			var rnow simDurT
			lastSeen := make([]uint64, cohSlots)
			buf := make([]byte, cohRecordSize)
			for {
				// Observe the done flag BEFORE polling: a poll that starts
				// after the writer's final publish must surface it, making
				// the last pass an exact staleness check.
				final := done.Load()
				if _, err := r.PollInvalidations(); err != nil {
					t.Errorf("reader %d: poll: %v", ri, err)
					return
				}
				for slot := 0; slot < cohSlots; slot++ {
					rnow, err = r.Read(rnow, base+mem.Addr(slot)*mem.PageSize, buf)
					if err != nil {
						t.Errorf("reader %d: slot %d read: %v", ri, slot, err)
						return
					}
					v := binary.BigEndian.Uint64(buf)
					if v < lastSeen[slot] {
						t.Errorf("reader %d: slot %d version regressed %d -> %d", ri, slot, lastSeen[slot], v)
						return
					}
					if !bytes.Equal(buf, cohRecord(slot, v)) {
						t.Errorf("reader %d: slot %d torn record under version %d", ri, slot, v)
						return
					}
					if final && v != cohFinalRound {
						t.Errorf("reader %d: slot %d stale at version %d after final publish %d", ri, slot, v, cohFinalRound)
						return
					}
					lastSeen[slot] = v
				}
				if final {
					return
				}
			}
		}(ri, r)
	}

	// Writer rounds, with the chaos hand striking mid-run: kill one of
	// the two replica holders (seed-picked) after round 8's publish, let
	// the ship-failure reports expel it over the next rounds, repair onto
	// the spare after round 10, and keep publishing on the healed rack.
	var victim Slab
	for round := uint64(2); round <= cohFinalRound; round++ {
		for slot := 0; slot < cohSlots; slot++ {
			wnow = mustWrite(t, w, wnow, base+mem.Addr(slot)*mem.PageSize, cohRecord(slot, round))
		}
		if wnow, err = w.Sync(wnow); err != nil {
			t.Fatalf("round %d sync: %v", round, err)
		}
		switch round {
		case cohKillRound:
			members := groupMembersFor(w, base)
			if len(members) != 2 {
				t.Fatalf("members = %+v, want 2 replicas", members)
			}
			victim = members[int(uint64(seed)%2)]
			srvs[victim.Node].Close()
		case cohHealRound:
			ctrl.HealthSweep() // backstop; the ship-failure report usually beat it
			if ctrl.DegradedCount() == 0 {
				t.Fatal("victim loss not detected")
			}
			drainRepairs(t, engine, ctrl)
			if st := engine.Stats(); st.Repair.Flips == 0 {
				t.Fatalf("repair drained with zero flips: %+v", st)
			}
		}
	}
	done.Store(true)
	wg.Wait()

	// Epilogue: the writer idles past the TTL; a rival takeover bumps the
	// epoch and re-arms the fences (including on the repaired member), so
	// the zombie's next flush dies at the memnodes instead of corrupting
	// the published region.
	time.Sleep(leaseTTL + 200*time.Millisecond)
	if _, err := ctrl.AcquireLease(group, 0xDEAD, cluster.LeaseWriter, 0); err != nil {
		t.Fatalf("takeover after writer idled past TTL: %v", err)
	}
	wnow = mustWrite(t, w, wnow, base, cohRecord(0, cohFinalRound+1))
	if _, err := w.Sync(wnow); !errors.Is(err, cluster.ErrLeaseFenced) && !errors.Is(err, cluster.ErrLeaseConflict) {
		t.Fatalf("zombie writer sync: got %v, want lease-fenced or lease-conflict", err)
	}

	fs := w.FailureStats()
	if fs.ShipFailureReports == 0 {
		t.Errorf("writer never reported the dead replica (victim %+v)", victim)
	}
	if fs.PlacementRefreshes == 0 {
		t.Errorf("writer never refreshed placements after the repair flip")
	}
	ls := ctrl.LeaseSnapshot()
	if ls.Publishes < cohFinalRound {
		t.Errorf("publishes = %d, want >= %d", ls.Publishes, cohFinalRound)
	}
	if ls.Expirations == 0 || ls.Takeovers == 0 {
		t.Errorf("expirations=%d takeovers=%d, want both > 0", ls.Expirations, ls.Takeovers)
	}
}
