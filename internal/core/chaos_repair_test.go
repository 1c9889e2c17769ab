package core

import (
	"bytes"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"kona/internal/cluster"
	"kona/internal/mem"
)

// Chaos harness (DESIGN.md §10): kill a memory node holding live
// replicas mid-workload, let the degraded-detection / re-replication /
// placement-refresh machinery heal the rack, and byte-compare every page
// of every replica against a host-side mirror. `make chaos` runs these
// under -race with a rotating seed; plain `go test` uses fixed seeds so
// CI stays deterministic.

// chaosSeed returns the workload seed: KONA_CHAOS_SEED when set (the
// rotating-seed hook), the fixed default otherwise.
func chaosSeed(t *testing.T, def int64) int64 {
	s := os.Getenv("KONA_CHAOS_SEED")
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("KONA_CHAOS_SEED=%q: %v", s, err)
	}
	t.Logf("chaos seed %d", v)
	return v
}

// groupMembersFor snapshots the placement-group members backing addr.
func groupMembersFor(k *Kona, addr mem.Addr) []Slab {
	k.rm.mu.Lock()
	defer k.rm.mu.Unlock()
	s, ok := k.rm.alloc.SlabFor(addr)
	if !ok {
		return nil
	}
	members := k.rm.replicas[s.ID].members
	out := make([]Slab, len(members))
	for i, m := range members {
		out[i] = m.Slab
	}
	return out
}

// chaosWorkload drives random reads/writes/syncs against a Kona runtime,
// mirroring every write into a host-side reference buffer and checking
// every read against it.
type chaosWorkload struct {
	t      *testing.T
	k      *Kona
	ctrl   *cluster.Controller
	rng    *rand.Rand
	base   mem.Addr
	mirror []byte
	now    simDurT
}

func newChaosWorkload(t *testing.T, k *Kona, ctrl *cluster.Controller, seed int64, pages int) *chaosWorkload {
	t.Helper()
	regionBytes := uint64(pages) * mem.PageSize
	base, err := k.Malloc(regionBytes)
	if err != nil {
		t.Fatal(err)
	}
	return &chaosWorkload{
		t:      t,
		k:      k,
		ctrl:   ctrl,
		rng:    rand.New(rand.NewSource(seed)),
		base:   base,
		mirror: make([]byte, regionBytes),
	}
}

func (w *chaosWorkload) run(steps int) { w.drive(steps, true) }

// runUntilShip drives the workload with no Syncs until the evictor
// attempts a log ship — a threshold flush or a write-before-read flush,
// landed or bounced off a seal. A Sync refreshes placements before it
// ships, so only a Sync-free stretch makes a ship meet a stale placement.
func (w *chaosWorkload) runUntilShip() {
	w.t.Helper()
	attempts := func() uint64 { return w.k.EvictStats().Flushes + w.k.FailureStats().SealedRetains }
	before := attempts()
	for i := 0; attempts() == before; i++ {
		if i == 500 {
			w.t.Fatalf("no log ship attempted in %d Sync-free steps", 8*i)
		}
		w.drive(8, false)
	}
}

// drive runs steps random operations; with syncs off, the Sync slot of
// the mix becomes a read.
func (w *chaosWorkload) drive(steps int, syncs bool) {
	w.t.Helper()
	regionBytes := uint64(len(w.mirror))
	var err error
	for i := 0; i < steps; i++ {
		off := uint64(w.rng.Int63n(int64(regionBytes - 512)))
		size := 1 + w.rng.Intn(511)
		op := w.rng.Intn(10)
		if op == 0 && !syncs {
			op = 9
		}
		switch op {
		case 0:
			if w.now, err = w.k.Sync(w.now); err != nil {
				w.t.Fatalf("step %d: sync: %v", i, err)
			}
		case 1, 2, 3, 4:
			data := make([]byte, size)
			w.rng.Read(data)
			if w.now, err = w.k.Write(w.now, w.base+mem.Addr(off), data); err != nil {
				w.t.Fatalf("step %d: write: %v", i, err)
			}
			copy(w.mirror[off:], data)
		default:
			buf := make([]byte, size)
			if w.now, err = w.k.Read(w.now, w.base+mem.Addr(off), buf); err != nil {
				w.t.Fatalf("step %d: read: %v", i, err)
			}
			if !bytes.Equal(buf, w.mirror[off:off+uint64(size)]) {
				w.t.Fatalf("step %d: read at +%d/%d diverged from mirror", i, off, size)
			}
		}
	}
}

func (w *chaosWorkload) sync() {
	w.t.Helper()
	var err error
	if w.now, err = w.k.Sync(w.now); err != nil {
		w.t.Fatal(err)
	}
}

// verifyThroughRuntime reads every page back through the runtime and
// compares it against the mirror (end-to-end, failover included).
func (w *chaosWorkload) verifyThroughRuntime() {
	w.t.Helper()
	buf := make([]byte, mem.PageSize)
	pages := len(w.mirror) / int(mem.PageSize)
	var err error
	for p := 0; p < pages; p++ {
		if w.now, err = w.k.Read(w.now, w.base+mem.Addr(uint64(p)*mem.PageSize), buf); err != nil {
			w.t.Fatalf("page %d: %v", p, err)
		}
		if !bytes.Equal(buf, w.mirror[uint64(p)*mem.PageSize:uint64(p+1)*mem.PageSize]) {
			w.t.Fatalf("page %d diverged from mirror", p)
		}
	}
}

// verifyReplicas byte-compares every page of every replica against the
// mirror by reading the member pools directly, and asserts full
// replication: `want` live, current-incarnation members per page, all
// identical to the host-side truth. Call only after a Sync.
func (w *chaosWorkload) verifyReplicas(want int) {
	w.t.Helper()
	buf := make([]byte, mem.PageSize)
	pages := len(w.mirror) / int(mem.PageSize)
	for p := 0; p < pages; p++ {
		addr := w.base + mem.Addr(uint64(p)*mem.PageSize)
		members := groupMembersFor(w.k, addr)
		if len(members) != want {
			w.t.Fatalf("page %d: %d members, want %d", p, len(members), want)
		}
		for _, m := range members {
			n, ok := w.ctrl.Node(m.Node)
			if !ok {
				w.t.Fatalf("page %d: member node %d not registered", p, m.Node)
			}
			if n.Failed() {
				w.t.Fatalf("page %d: member node %d is dead (replication not restored)", p, m.Node)
			}
			if inc := w.ctrl.Incarnation(m.Node); m.Epoch != inc {
				w.t.Fatalf("page %d: member epoch %d != node %d incarnation %d (stale placement survived)",
					p, m.Epoch, m.Node, inc)
			}
			off := m.RemoteOff + uint64(addr-m.Base)
			if err := n.ReadAt(off, buf); err != nil {
				w.t.Fatalf("page %d node %d: %v", p, m.Node, err)
			}
			if !bytes.Equal(buf, w.mirror[uint64(p)*mem.PageSize:uint64(p+1)*mem.PageSize]) {
				w.t.Fatalf("page %d: replica on node %d diverged from mirror (lost/torn lines)", p, m.Node)
			}
		}
	}
}

// drainRepairs runs repair passes until no slab is degraded.
func drainRepairs(t *testing.T, e *cluster.ReplaceEngine, ctrl *cluster.Controller) {
	t.Helper()
	for i := 0; ctrl.DegradedCount() > 0; i++ {
		if i > 100 {
			t.Fatalf("repair did not converge: %d slabs still degraded", ctrl.DegradedCount())
		}
		e.RepairOnce()
	}
}

// TestChaosKillReplicaRepairVerify is the headline chaos test: a replica
// node is killed mid-workload; the evictor's ship-failure report expels
// it and degrades its slabs; the repair engine re-replicates them onto
// the spare node; the runtime's next Sync picks up the placement flip and
// replays its retained dirty lines onto the repaired member. Afterwards
// every page of every replica must match the host-side mirror exactly.
func TestChaosKillReplicaRepairVerify(t *testing.T) {
	seed := chaosSeed(t, 1)
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize // constant eviction churn
	cfg.Replicas = 2
	k := NewKona(cfg, ctrl)
	w := newChaosWorkload(t, k, ctrl, seed, 128)

	// Phase 1: healthy rack.
	w.run(1500)

	// Kill one of the two nodes actually hosting the region (seed-picked).
	members := groupMembersFor(k, w.base)
	if len(members) != 2 {
		t.Fatalf("members = %+v, want 2 replicas", members)
	}
	victim := members[int(uint64(seed)%2)]
	vn, ok := ctrl.Node(victim.Node)
	if !ok {
		t.Fatalf("victim node %d not registered", victim.Node)
	}
	vn.Fail()

	// Phase 2: degraded operation. Reads fail over; evictions to the dead
	// replica are skipped-and-retained; the first skipped ship reports the
	// outage, which expels the node and degrades its slabs.
	w.run(1000)
	ctrl.HealthSweep() // backstop for a workload that never shipped
	if ctrl.DegradedCount() == 0 {
		t.Fatalf("victim loss not detected")
	}
	if _, ok := ctrl.Node(victim.Node); ok {
		t.Fatalf("dead victim still registered")
	}

	// Repair: copy each degraded slab from its surviving replica onto the
	// spare node and flip the placement.
	engine := cluster.NewReplaceEngine(ctrl, ctrl.Dial,
		cluster.ReplaceConfig{RepairBytesPerSec: 512 << 20})
	drainRepairs(t, engine, ctrl)
	if st := engine.Stats(); st.Repair.Flips == 0 {
		t.Fatalf("repair drained with zero flips: %+v", st)
	}

	// Sync observes the placement-epoch bump, refreshes, remaps the
	// retained entries onto the repaired member and flushes them.
	w.sync()

	// Phase 3: keep running on the healed rack, then verify everything.
	w.run(500)
	w.sync()
	w.verifyReplicas(2)
	w.verifyThroughRuntime()

	fs := k.FailureStats()
	if fs.ShipFailureReports == 0 {
		t.Errorf("evictor never reported the dead replica")
	}
	if fs.PlacementRefreshes == 0 {
		t.Errorf("runtime never refreshed placements after the flip")
	}
	if fs.RemappedEntries == 0 {
		t.Errorf("no retained entries remapped onto the repaired member")
	}
	for _, m := range groupMembersFor(k, w.base) {
		if m.Node == victim.Node && m.Epoch == victim.Epoch {
			t.Errorf("pre-crash placement survived repair: %+v", m)
		}
	}
}

// TestChaosRejoinSoak cycles crash → degraded workload → repair → rejoin
// of the same node id under load, checking the rack converges every
// cycle: node count restored, no leaked degraded slabs, no accepted
// double registration, incarnations strictly growing, and all data
// intact at the end.
func TestChaosRejoinSoak(t *testing.T) {
	seed := chaosSeed(t, 2)
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.Replicas = 2
	k := NewKona(cfg, ctrl)
	w := newChaosWorkload(t, k, ctrl, seed, 64)
	engine := cluster.NewReplaceEngine(ctrl, ctrl.Dial, cluster.ReplaceConfig{})

	const cycles = 4
	lastIncarn := make(map[int]uint64)
	for cycle := 0; cycle < cycles; cycle++ {
		w.run(400)

		// Crash a current replica holder (rotates across cycles as repair
		// moves placements around).
		members := groupMembersFor(k, w.base)
		victim := members[cycle%len(members)].Node
		vn, ok := ctrl.Node(victim)
		if !ok {
			t.Fatalf("cycle %d: victim %d not registered", cycle, victim)
		}
		vn.Fail()

		w.run(250) // degraded operation
		ctrl.HealthSweep()
		drainRepairs(t, engine, ctrl)

		// Crash-rejoin: the same id returns with an empty pool and must be
		// admitted under a strictly higher incarnation...
		if err := ctrl.Register(cluster.NewMemoryNode(victim, 64<<20)); err != nil {
			t.Fatalf("cycle %d: rejoin of node %d: %v", cycle, victim, err)
		}
		inc := ctrl.Incarnation(victim)
		if inc <= lastIncarn[victim] || inc < 2 {
			t.Fatalf("cycle %d: incarnation %d did not grow (last %d)", cycle, inc, lastIncarn[victim])
		}
		lastIncarn[victim] = inc
		// ...while a second registration of the now-live id is rejected.
		if err := ctrl.Register(cluster.NewMemoryNode(victim, 64<<20)); err == nil {
			t.Fatalf("cycle %d: double registration of live node %d accepted", cycle, victim)
		}
		if got := ctrl.Nodes(); got != 3 {
			t.Fatalf("cycle %d: %d nodes registered, want 3", cycle, got)
		}
		if got := ctrl.DegradedCount(); got != 0 {
			t.Fatalf("cycle %d: %d degraded slabs leaked", cycle, got)
		}
		w.sync() // pick up the flip before the next cycle
	}

	w.run(300)
	w.sync()
	w.verifyReplicas(2)
	w.verifyThroughRuntime()

	st := engine.Stats()
	if st.Repair.Flips < cycles {
		t.Errorf("flips = %d, want >= %d (one per killed replica)", st.Repair.Flips, cycles)
	}
	fs := k.FailureStats()
	if fs.PlacementRefreshes < cycles {
		t.Errorf("placement refreshes = %d, want >= %d", fs.PlacementRefreshes, cycles)
	}
	if fs.ShipFailureReports == 0 {
		t.Errorf("evictor never reported a dead replica across %d kills", cycles)
	}
}

// TestReplacementDoesNotStarveFetchP99 is the starvation guard (`make
// guards`): fetch latency lives on the simulated-fabric virtual
// clock while replacement copies ride their own budgeted node handles, so
// a concurrent 4MB member replacement — of a lost member (repair) or of a
// live one (migration) — must not degrade the fetch p99 by 10% or more.
func TestReplacementDoesNotStarveFetchP99(t *testing.T) {
	seed := chaosSeed(t, 3)
	const pages = 128

	// fetchP99 runs a deterministic cold-read sequence and returns the
	// p99 per-read virtual latency.
	fetchP99 := func(t *testing.T) simDurT {
		ctrl := newCluster(2)
		cfg := smallConfig()
		cfg.LocalCacheBytes = 8 * mem.PageSize
		k := NewKona(cfg, ctrl)
		w := newChaosWorkload(t, k, ctrl, seed, pages)
		// Populate remote memory, then read far beyond the cache so most
		// accesses are remote fetches.
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

	baseline := fetchP99(t)
	if baseline <= 0 {
		t.Fatalf("degenerate baseline p99 %v", baseline)
	}

	// Each row runs the same sequence again with a real replacement copying
	// a 4MB slab in the background at 1MB/s — the copy outlives the
	// measurement. setup leaves one member to replace and returns the crank
	// that replaces it and the count of committed flips.
	rows := []struct {
		name  string
		setup func(t *testing.T, ctrl *cluster.Controller, eng *cluster.ReplaceEngine) (crank func() int, flips func() uint64)
	}{
		{"lost", func(t *testing.T, ctrl *cluster.Controller, eng *cluster.ReplaceEngine) (func() int, func() uint64) {
			members, err := ctrl.AllocSlab(4<<20, 2)
			if err != nil {
				t.Fatal(err)
			}
			vn, _ := ctrl.Node(members[1].Node)
			vn.Fail()
			ctrl.HealthSweep()
			return eng.RepairOnce, func() uint64 { return eng.Stats().Repair.Flips }
		}},
		{"live", func(t *testing.T, ctrl *cluster.Controller, eng *cluster.ReplaceEngine) (func() int, func() uint64) {
			src, err := ctrl.AllocSlab(4<<20, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Make the hosting node hot so the sweep picks its slab.
			ctrl.ReportLoad(src[0].Node, cluster.LoadSample{ReadBytes: 64 << 20})
			return eng.SweepOnce, func() uint64 { return eng.Stats().Migrate.Flips }
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctrl := cluster.NewController()
			for i := 0; i < 3; i++ {
				if err := ctrl.Register(cluster.NewMemoryNode(i, 8<<20)); err != nil {
					t.Fatal(err)
				}
			}
			eng := cluster.NewReplaceEngine(ctrl, ctrl.Dial, cluster.ReplaceConfig{
				RepairBytesPerSec: 1 << 20, MigrateBytesPerSec: 1 << 20, HotRatio: 2,
			})
			crank, flips := row.setup(t, ctrl, eng)
			copied := make(chan struct{})
			go func() {
				defer close(copied)
				crank()
			}()
			during := fetchP99(t)
			<-copied
			if n := flips(); n != 1 {
				t.Fatalf("background replacement did not complete: %+v", eng.Stats())
			}
			if float64(during) >= float64(baseline)*1.10 {
				t.Fatalf("fetch p99 %v during replacement vs %v baseline: degraded >= 10%%", during, baseline)
			}
		})
	}
}

// arenaBytes sums the payload bytes of every arena chunk still in use:
// each chunk some buffered or retained entry aliases, counted once.
func arenaBytes(k *Kona) uint64 {
	e := k.evict
	inUse := make(map[*arenaChunk]bool)
	mark := func(l *entryList) {
		for _, r := range l.runs {
			inUse[r.c] = true
		}
	}
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	for _, nb := range e.orderSnapshot() {
		mark(&nb.entryList)
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, sb := range sh.batches {
			mark(&sb.entryList)
		}
		sh.mu.Unlock()
	}
	var n uint64
	for c := range inUse {
		n += uint64(len(c.buf))
	}
	return n
}

// TestTwoGroupsOneDeadNode is the regression test for the mis-keyed move
// table: two placement groups each lose a member on the same dead node.
// Keyed by the dead node's link alone, the second group's move overwrote
// the first's — one group's retained entries were never rebased, the dead
// node's batch kept them (and their pending bytes) forever, neither
// repaired copy ever became readable, and no arena recycled again. Moves
// are keyed by the extent they vacate, so each group gets its own rebase
// and its own catch-up.
func TestTwoGroupsOneDeadNode(t *testing.T) {
	seed := chaosSeed(t, 6)
	const slabPages = 64
	ctrl := newCluster(4)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.Replicas = 2
	cfg.SlabSize = slabPages * mem.PageSize
	k := NewKona(cfg, ctrl)
	var ws []*chaosWorkload
	hosted := make(map[int]int) // node -> groups with a member there
	for i := 0; i < 4; i++ {
		w := newChaosWorkload(t, k, ctrl, seed+int64(i), slabPages)
		ws = append(ws, w)
		for _, m := range groupMembersFor(k, w.base) {
			hosted[m.Node]++
		}
	}
	victim := -1
	for node, groups := range hosted {
		if groups >= 2 && (victim < 0 || node < victim) {
			victim = node
		}
	}
	if victim < 0 {
		t.Fatalf("no node hosts two groups: %v", hosted)
	}
	deadKey := linkKeyFor(victim, ctrl.Incarnation(victim))
	each := func(f func(w *chaosWorkload)) {
		for _, w := range ws {
			f(w)
		}
	}

	each(func(w *chaosWorkload) { w.run(300) })
	vn, _ := ctrl.Node(victim)
	vn.Fail()
	each(func(w *chaosWorkload) { w.run(300) }) // retain for the dead members
	ctrl.HealthSweep()
	if got := ctrl.DegradedCount(); got != hosted[victim] {
		t.Fatalf("%d members degraded, want %d", got, hosted[victim])
	}
	engine := cluster.NewReplaceEngine(ctrl, ctrl.Dial,
		cluster.ReplaceConfig{RepairBytesPerSec: 512 << 20})
	drainRepairs(t, engine, ctrl)
	each(func(w *chaosWorkload) { w.sync() })
	each(func(w *chaosWorkload) { w.sync() })

	fs := k.FailureStats()
	if fs.RemappedEntries == 0 {
		t.Fatal("nothing was retained across the outage — the scenario never formed")
	}
	if fs.SuspectMembers != 0 {
		t.Errorf("%d members still catching up after the drain", fs.SuspectMembers)
	}
	k.evict.flushMu.Lock()
	for _, nb := range k.evict.orderSnapshot() {
		if nb.link.key() != deadKey {
			continue
		}
		if n, p := len(nb.entries), nb.pendingBytes.Load(); n != 0 || p != 0 {
			t.Errorf("dead node %d's batch still holds %d entries / %d pending bytes", victim, n, p)
		}
	}
	// Both flips were repairs: their moves stay for the life of the
	// runtime, one per vacated extent.
	if got := len(k.evict.moves); got != hosted[victim] {
		t.Errorf("%d moves recorded, want %d (one per group that lost a member)", got, hosted[victim])
	}
	for _, mv := range k.evict.moves {
		if mv.retire {
			t.Errorf("repair move %+v marked to retire", mv.from)
		}
	}
	k.evict.flushMu.Unlock()
	each(func(w *chaosWorkload) {
		w.verifyReplicas(2)
		w.verifyThroughRuntime()
	})

	// A Sync-free stretch: write-before-read flushes must recycle the
	// arena chunks — a dead member's batch kept forever would pin every
	// chunk its entries alias.
	before, shipped := arenaBytes(k), k.EvictStats().PayloadBytes
	each(func(w *chaosWorkload) { w.drive(400, false) })
	grew := k.EvictStats().PayloadBytes - shipped
	if after := arenaBytes(k); grew == 0 || after >= before+grew {
		t.Errorf("arenas never recycled: %d bytes held before, %d appended, %d held after", before, grew, after)
	}
	each(func(w *chaosWorkload) { w.sync() })
	each(func(w *chaosWorkload) { w.verifyReplicas(2) })
}
