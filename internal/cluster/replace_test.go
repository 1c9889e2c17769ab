package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kona/internal/cllog"
	"kona/internal/mem"
	"kona/internal/slab"
	"kona/internal/telemetry"
)

// repairRack builds a controller with n registered 8MB memory nodes.
func repairRack(t *testing.T, n int) *Controller {
	t.Helper()
	c := NewController()
	for i := 0; i < n; i++ {
		if err := c.Register(NewMemoryNode(i, 8<<20)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// fillMember writes a deterministic pattern into one replica's extent.
func fillMember(t *testing.T, c *Controller, s slab.Slab, seed byte) []byte {
	t.Helper()
	data := make([]byte, s.Size)
	for i := range data {
		data[i] = seed + byte(i)
	}
	n, ok := c.Node(s.Node)
	if !ok {
		t.Fatalf("member node %d not registered", s.Node)
	}
	if err := n.WriteAt(s.RemoteOff, data); err != nil {
		t.Fatal(err)
	}
	return data
}

func readMember(t *testing.T, c *Controller, s slab.Slab) []byte {
	t.Helper()
	n, ok := c.Node(s.Node)
	if !ok {
		t.Fatalf("member node %d not registered", s.Node)
	}
	buf := make([]byte, s.Size)
	if err := n.ReadAt(s.RemoteOff, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// localEngine is an engine over c's in-process nodes.
func localEngine(c *Controller, cfg ReplaceConfig) *ReplaceEngine {
	return NewReplaceEngine(c, c.Dial, cfg)
}

// nodeHooks intercepts verbs of the handles a dialer hands out, so a test
// can inject a concurrent writer or a fault at one step of a replacement.
// A nil hook is skipped; a hook returning an error fails the verb instead
// of running it.
type nodeHooks struct {
	read, write, unseal, release func(node int) error
	sealed                       func(node int) // after a successful Seal
}

func (h *nodeHooks) over(dial NodeDialer) NodeDialer {
	return func(node int, epoch uint64) (NodeAccess, error) {
		n, err := dial(node, epoch)
		return hookedNode{NodeAccess: n, node: node, h: h}, err
	}
}

type hookedNode struct {
	NodeAccess
	node int
	h    *nodeHooks
}

func hook(f func(int) error, node int) error {
	if f == nil {
		return nil
	}
	return f(node)
}

func (n hookedNode) ReadPagesInto(offsets []uint64, bufs [][]byte) error {
	if err := hook(n.h.read, n.node); err != nil {
		return err
	}
	return n.NodeAccess.ReadPagesInto(offsets, bufs)
}

func (n hookedNode) WriteVec(offset uint64, segs ...[]byte) error {
	if err := hook(n.h.write, n.node); err != nil {
		return err
	}
	return n.NodeAccess.WriteVec(offset, segs...)
}

func (n hookedNode) Seal(off, size uint64) error {
	err := n.NodeAccess.Seal(off, size)
	if err == nil && n.h.sealed != nil {
		n.h.sealed(n.node)
	}
	return err
}

func (n hookedNode) Unseal(off, size uint64) error {
	if err := hook(n.h.unseal, n.node); err != nil {
		return err
	}
	return n.NodeAccess.Unseal(off, size)
}

func (n hookedNode) ReleaseExtent(off, size uint64) error {
	if err := hook(n.h.release, n.node); err != nil {
		return err
	}
	return n.NodeAccess.ReleaseExtent(off, size)
}

func drainRepairs(t *testing.T, e *ReplaceEngine, c *Controller) {
	t.Helper()
	for i := 0; c.DegradedCount() > 0; i++ {
		if i > 100 {
			t.Fatalf("repair did not converge: %d slabs still degraded", c.DegradedCount())
		}
		e.RepairOnce()
	}
}

// TestRepairRestoresReplication kills one replica of a group and checks
// the engine copies the slab onto a healthy node, flips the placement,
// and the new member's bytes match the surviving source exactly.
func TestRepairRestoresReplication(t *testing.T) {
	c := repairRack(t, 3)
	members, err := c.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := fillMember(t, c, members[0], 7)
	fillMember(t, c, members[1], 7)
	gid := members[0].ID

	// A failure report against a live node must be a no-op.
	if c.ReportNodeFailure(members[1].Node) {
		t.Fatalf("live node expelled by a false failure report")
	}

	epochBefore := c.PlacementEpoch()
	victim := members[1].Node
	vn, _ := c.Node(victim)
	vn.Fail()
	if !c.ReportNodeFailure(victim) {
		t.Fatalf("confirmed-dead node not removed")
	}
	d := c.DegradedSlabs()
	if len(d) != 1 || d[0].ID != gid || d[0].Node != victim {
		t.Fatalf("degraded set = %+v, want group %d / node %d", d, gid, victim)
	}

	e := localEngine(c, ReplaceConfig{})
	if flips := e.RepairOnce(); flips != 1 {
		t.Fatalf("RepairOnce flips = %d, want 1", flips)
	}
	if c.DegradedCount() != 0 {
		t.Fatalf("degraded entry leaked after repair")
	}
	st := e.Stats()
	if st.Repair.Flips != 1 || st.Repair.BytesCopied != 1<<20 || st.Migrate != (CauseStats{}) {
		t.Fatalf("stats = %+v, want 1 repair flip / %d bytes and no migration", st, 1<<20)
	}
	if c.PlacementEpoch() <= epochBefore {
		t.Fatalf("placement epoch did not advance across remove+flip")
	}

	cur, err := c.SlabPlacements(gid)
	if err != nil || len(cur) != 2 {
		t.Fatalf("placements = %v", cur)
	}
	for _, m := range cur {
		if m.Node == victim {
			t.Fatalf("dead node still in placement group: %+v", cur)
		}
		if got := c.Incarnation(m.Node); m.Epoch != got {
			t.Fatalf("member epoch %d, node incarnation %d", m.Epoch, got)
		}
		if got := readMember(t, c, m); !bytes.Equal(got, want) {
			t.Fatalf("member on node %d diverged after repair", m.Node)
		}
	}
}

// TestRepairSkipsLostNodeAsTarget is the regression test for the
// sweep/repair race: a node that died between the health sweep and the
// repair enqueue must never be chosen as its own repair target — but the
// same id rejoining under a fresh incarnation is a valid target.
func TestRepairSkipsLostNodeAsTarget(t *testing.T) {
	c := repairRack(t, 2)
	members, err := c.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := fillMember(t, c, members[0], 3)
	fillMember(t, c, members[1], 3)
	victim := members[1].Node
	lostEpoch := c.Incarnation(victim)
	vn, _ := c.Node(victim)
	vn.Fail()
	c.HealthSweep()

	d := c.DegradedSlabs()
	if len(d) != 1 {
		t.Fatalf("degraded = %+v", d)
	}
	// Only the surviving node is left and it already holds a member: the
	// dead node must not be offered as a target, so the carve fails.
	if _, s, err := c.CarveReplacement(d[0]); err == nil {
		t.Fatalf("carved repair target %+v with no eligible node", s)
	}
	e := localEngine(c, ReplaceConfig{})
	if flips := e.RepairOnce(); flips != 0 {
		t.Fatalf("repaired with no eligible target (flips=%d)", flips)
	}
	if c.DegradedCount() != 1 {
		t.Fatalf("degraded entry lost by a failed repair")
	}

	// Crash-rejoin: the same id comes back empty under a new incarnation
	// and is now a legitimate repair target.
	if err := c.Register(NewMemoryNode(victim, 8<<20)); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got := c.Incarnation(victim); got != lostEpoch+1 {
		t.Fatalf("rejoin incarnation = %d, want %d", got, lostEpoch+1)
	}
	src, target, err := c.CarveReplacement(d[0])
	if err != nil {
		t.Fatalf("rejoined node rejected as repair target: %v", err)
	}
	if target.Node != victim || target.Epoch != lostEpoch+1 {
		t.Fatalf("target = %+v, want node %d at epoch %d", target, victim, lostEpoch+1)
	}
	if src != members[0] {
		t.Fatalf("copy source = %+v, want the survivor %+v", src, members[0])
	}
	c.AbandonExtent(target)
	drainRepairs(t, e, c)
	cur, _ := c.SlabPlacements(members[0].ID)
	for _, m := range cur {
		if got := readMember(t, c, m); !bytes.Equal(got, want) {
			t.Fatalf("member on node %d diverged after rejoin repair", m.Node)
		}
	}
}

// TestCommitReplacementFencesStaleFlips covers the copy-window failure
// modes: the target dying mid-copy, the degraded state changing under the
// copy, and a double commit must all be rejected without losing the
// degraded entry.
func TestCommitReplacementFencesStaleFlips(t *testing.T) {
	c := repairRack(t, 3)
	members, err := c.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillMember(t, c, members[0], 11)
	fillMember(t, c, members[1], 11)
	vn, _ := c.Node(members[1].Node)
	vn.Fail()
	c.HealthSweep()
	d := c.DegradedSlabs()[0]

	_, target, err := c.CarveReplacement(d)
	if err != nil {
		t.Fatal(err)
	}
	// A copy taken as if the member were live (captured and sealed on a
	// node that is in fact dead) must not flip.
	if err := c.CommitReplacement(d, target, false); err == nil {
		t.Fatalf("committed a live-member copy of a member that is degraded")
	}
	// Target dies during the copy window: the flip must be refused.
	tn, _ := c.Node(target.Node)
	tn.Fail()
	if err := c.CommitReplacement(d, target, true); err == nil {
		t.Fatalf("committed repair onto a node that died mid-copy")
	}
	c.AbandonExtent(target)
	if c.DegradedCount() != 1 {
		t.Fatalf("degraded entry lost by an aborted flip")
	}

	// Target recovers; the next pass completes, and a second commit of the
	// same degraded entry is stale.
	tn.Recover()
	e := localEngine(c, ReplaceConfig{})
	drainRepairs(t, e, c)
	if err := c.CommitReplacement(d, target, true); err == nil {
		t.Fatalf("double commit accepted")
	}

	// The live twin: a member whose node dies while its migration copy is
	// in flight was captured from a corpse — the flip must be refused.
	// (The victim's id rejoins first so there is a node to move to.)
	if err := c.Register(NewMemoryNode(d.Node, 8<<20)); err != nil {
		t.Fatal(err)
	}
	live, _ := c.SlabPlacements(d.ID)
	_, dst, err := c.CarveReplacement(live[0])
	if err != nil {
		t.Fatal(err)
	}
	ln, _ := c.Node(live[0].Node)
	ln.Fail()
	c.HealthSweep()
	if err := c.CommitReplacement(live[0], dst, false); err == nil {
		t.Fatalf("migration flipped a member that was degraded during the copy")
	}
	c.AbandonExtent(dst)
}

func mustServeNode(t *testing.T, n *MemoryNode) *MemoryNodeServer {
	t.Helper()
	srv, err := ServeMemoryNode(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestRegisterArbitratesRejoin: registering an id held by a live node is
// rejected; once the incumbent is dead the newcomer is admitted under a
// higher incarnation, the dead node's members degrade, and repair can
// then land the lost replica back on the rejoined node.
func TestRegisterArbitratesRejoin(t *testing.T) {
	c := repairRack(t, 2)
	members, err := c.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := fillMember(t, c, members[0], 5)
	fillMember(t, c, members[1], 5)

	if err := c.Register(NewMemoryNode(0, 8<<20)); err == nil {
		t.Fatalf("double registration of a live id accepted")
	}

	n0, _ := c.Node(0)
	n0.Fail()
	// No sweep ran: Register itself must detect the dead incumbent, expel
	// it (degrading its member) and admit the newcomer.
	if err := c.Register(NewMemoryNode(0, 8<<20)); err != nil {
		t.Fatalf("rejoin over dead incumbent: %v", err)
	}
	if got := c.Incarnation(0); got != 2 {
		t.Fatalf("incarnation after rejoin = %d, want 2", got)
	}
	if c.Nodes() != 2 {
		t.Fatalf("nodes = %d, want 2", c.Nodes())
	}
	if c.DegradedCount() != 1 {
		t.Fatalf("dead incumbent's member not degraded on expulsion")
	}

	e := localEngine(c, ReplaceConfig{})
	drainRepairs(t, e, c)
	cur, _ := c.SlabPlacements(members[0].ID)
	if len(cur) != 2 {
		t.Fatalf("placements = %+v", cur)
	}
	for _, m := range cur {
		if m.Node == 0 && m.Epoch != 2 {
			t.Fatalf("repaired member on rejoined node carries stale epoch %d", m.Epoch)
		}
		if got := readMember(t, c, m); !bytes.Equal(got, want) {
			t.Fatalf("member on node %d diverged", m.Node)
		}
	}
}

// TestByteBudgetEnforcesRate runs the token bucket on a fake clock and
// checks the slept-out time matches the configured bytes/sec exactly:
// total traffic beyond the initial burst must take (bytes/rate) seconds.
func TestByteBudgetEnforcesRate(t *testing.T) {
	const rate, burst = 1 << 20, 64 << 10
	clock := time.Unix(0, 0)
	var slept time.Duration
	b := newByteBudget(rate, burst)
	b.now = func() time.Time { return clock }
	b.sleep = func(d time.Duration) {
		if d < 0 {
			t.Fatalf("negative sleep %v", d)
		}
		slept += d
		clock = clock.Add(d)
	}

	total := 0
	for i := 0; i < 64; i++ {
		b.take(64 << 10)
		total += 64 << 10
	}
	want := time.Duration(float64(total-burst) / rate * float64(time.Second))
	if slept < want {
		t.Fatalf("slept %v for %d bytes at %d B/s, want >= %v (budget exceeded)", slept, total, rate, want)
	}
	if slept > want+time.Millisecond {
		t.Fatalf("slept %v, want ~%v (budget overly conservative)", slept, want)
	}
}

func TestByteBudgetUnlimited(t *testing.T) {
	b := newByteBudget(0, 0)
	b.sleep = func(d time.Duration) { t.Fatalf("unlimited budget slept %v", d) }
	for i := 0; i < 100; i++ {
		b.take(1 << 30)
	}
}

// TestRepairRespectsByteBudget times a real repair against a small
// budget: copying 256KB at 1MB/s (100KB default burst) must sleep out at
// least ~150ms of deficit — background re-replication cannot exceed its
// configured share of the fabric.
func TestRepairRespectsByteBudget(t *testing.T) {
	c := repairRack(t, 3)
	members, err := c.AllocSlab(256<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillMember(t, c, members[0], 1)
	fillMember(t, c, members[1], 1)
	vn, _ := c.Node(members[1].Node)
	vn.Fail()
	c.HealthSweep()

	e := localEngine(c, ReplaceConfig{RepairBytesPerSec: 1 << 20})
	start := time.Now()
	drainRepairs(t, e, c)
	elapsed := time.Since(start)
	// 256KB - ~100KB burst at 1MB/s => >= ~150ms of enforced pacing.
	if min := 140 * time.Millisecond; elapsed < min {
		t.Fatalf("256KB repair at 1MB/s took %v, want >= %v", elapsed, min)
	}
	if st := e.Stats(); st.Repair.BytesCopied != 256<<10 {
		t.Fatalf("bytes copied = %d, want %d", st.Repair.BytesCopied, 256<<10)
	}
}

// concurrentWriter injects a writer into a live copy: every source read
// during the pre-seal phase first mutates one page of the source extent
// (through the node, so capture sees it), mirroring each write host-side.
// Once the engine seals the extent the writer stops — exactly the
// behavior of a compute runtime whose post-seal ships bounce.
type concurrentWriter struct {
	t      *testing.T
	src    slab.Slab
	node   *MemoryNode
	mirror []byte

	sealed bool
	writes int
}

func (w *concurrentWriter) hooks() *nodeHooks {
	return &nodeHooks{
		read: func(node int) error {
			if w.sealed || node != w.src.Node {
				return nil
			}
			off := w.src.RemoteOff + (uint64(w.writes)%(w.src.Size/mem.PageSize))*mem.PageSize
			data := bytes.Repeat([]byte{byte(0xC0 + w.writes)}, 128)
			if err := w.node.WriteAt(off, data); err != nil {
				w.t.Fatalf("concurrent write during copy: %v", err)
			}
			copy(w.mirror[off-w.src.RemoteOff:], data)
			w.writes++
			return nil
		},
		sealed: func(int) { w.sealed = true },
	}
}

// TestMigrationPreservesBytesUnderConcurrentWrites live-migrates a slab
// that a writer keeps dirtying throughout the copy and checks the
// flipped member is byte-identical to the final source image: the
// capture/drain/seal protocol must fold every pre-seal write into the
// target, and the delta counters must show it actually happened.
func TestMigrationPreservesBytesUnderConcurrentWrites(t *testing.T) {
	c := repairRack(t, 2)
	src, err := allocOne(c, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	mirror := fillMember(t, c, src, 9)
	srcNode, _ := c.Node(src.Node)

	w := &concurrentWriter{t: t, src: src, node: srcNode.MemoryNode, mirror: mirror}
	e := NewReplaceEngine(c, w.hooks().over(c.Dial), ReplaceConfig{RetireSweeps: 2})
	epochBefore := c.PlacementEpoch()
	if err := e.replaceMember(src); err != nil {
		t.Fatalf("replaceMember: %v", err)
	}
	if w.writes == 0 {
		t.Fatalf("test harness never wrote during the copy")
	}
	st := e.Stats()
	if st.Migrate.Flips != 1 || st.Migrate.Failures != 0 || st.Repair != (CauseStats{}) {
		t.Fatalf("stats = %+v, want 1 clean move and no repair", st)
	}
	if st.DeltaPages == 0 {
		t.Fatalf("no delta pages re-copied despite %d concurrent writes", w.writes)
	}
	if c.PlacementEpoch() <= epochBefore {
		t.Fatalf("placement epoch did not advance across the flip")
	}

	members, err := c.SlabPlacements(src.ID)
	if err != nil || len(members) != 1 {
		t.Fatalf("placements = %+v", members)
	}
	dst := members[0]
	if dst.Node == src.Node {
		t.Fatalf("member did not move off node %d", src.Node)
	}
	if got := readMember(t, c, dst); !bytes.Equal(got, mirror) {
		t.Fatalf("migrated member diverged from source image")
	}

	// The old extent stays sealed through its hold-down: a straggler
	// writer still holding the pre-flip placement fails loudly instead of
	// writing into a window that could be recycled.
	if err := srcNode.WriteAt(src.RemoteOff, make([]byte, 64)); !errors.Is(err, ErrSealed) {
		t.Fatalf("straggler write to retired extent = %v, want sealed error", err)
	}
	// No load reports ever arrived, so SweepOnce only ages retirements.
	for i := 0; i < 2; i++ {
		if moves := e.SweepOnce(); moves != 0 {
			t.Fatalf("idle sweep committed %d moves", moves)
		}
	}
	if st := e.Stats(); st.Retired != 1 {
		t.Fatalf("retired = %d, want 1 after hold-down", st.Retired)
	}
	if err := srcNode.WriteAt(src.RemoteOff, make([]byte, 64)); err != nil {
		t.Fatalf("write to released window still fenced: %v", err)
	}
	// The vacated window is back on the free list: the next same-size
	// carve reuses it, fence-free.
	if off, err := carveOn(c, src.Node, src.Size); err != nil || off != src.RemoteOff {
		t.Fatalf("retired window not reusable: off=%d err=%v, want %d", off, err, src.RemoteOff)
	}
}

// TestSealRejectsWritesAndWholeLogBatches pins the memnode-side fence: a
// sealed extent rejects direct writes, and a log batch touching it is
// rejected as a whole BEFORE any entry is applied — a half-applied batch
// racing the flip would tear the migrated image.
func TestSealRejectsWritesAndWholeLogBatches(t *testing.T) {
	n := NewMemoryNode(0, 1<<20)
	n.Seal(8192, 4096)

	if err := n.WriteAt(8192, make([]byte, 64)); !errors.Is(err, ErrSealed) {
		t.Fatalf("write into sealed extent = %v, want sealed error", err)
	}
	// Writes outside the sealed range proceed.
	if err := n.WriteAt(0, make([]byte, 64)); err != nil {
		t.Fatalf("write outside seal rejected: %v", err)
	}

	// Batch with one clean entry and one sealed entry: all-or-nothing.
	entries := []cllog.Entry{
		{RemoteOff: 0, Data: bytes.Repeat([]byte{0xEE}, mem.CacheLineSize)},
		{RemoteOff: 8192, Data: bytes.Repeat([]byte{0xEE}, mem.CacheLineSize)},
	}
	packed, err := cllog.Pack(entries, n.logMR.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	applied, _, err := n.UnpackLogFrom(0, packed)
	if !errors.Is(err, ErrSealed) {
		t.Fatalf("UnpackLogFrom into sealed extent = %v, want sealed error", err)
	}
	if applied != 0 {
		t.Fatalf("%d entries applied from a rejected batch", applied)
	}
	if n.PoolBytes()[0] == 0xEE {
		t.Fatalf("clean entry applied before the batch was rejected (torn batch)")
	}

	// Unseal lifts the fence and the same batch lands whole.
	n.Unseal(8192, 4096)
	if applied, _, err = n.UnpackLogFrom(0, packed); err != nil || applied != 2 {
		t.Fatalf("post-unseal UnpackLogFrom = %d, %v", applied, err)
	}
	if n.PoolBytes()[0] != 0xEE || n.PoolBytes()[8192] != 0xEE {
		t.Fatalf("entries misplaced after unseal")
	}
}

// killOn returns a hook that crashes the given node of c when it fires.
func killOn(c *Controller, victim int) func(int) {
	return func(int) {
		if n, ok := c.Node(victim); ok {
			n.Fail()
		}
	}
}

// TestMigrationAbortUnwinds covers the two abort windows: the target
// dying during the copy (before seal) and during the committed flip
// (after seal). Both must leave the source placement untouched, the
// source extent writable, and the carved target memory released.
func TestMigrationAbortUnwinds(t *testing.T) {
	// Target dies mid-copy: the first Write to it fails the node.
	c := repairRack(t, 2)
	src, err := allocOne(c, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	want := fillMember(t, c, src, 4)
	target := 1 - src.Node
	kill := killOn(c, target)
	dying := &nodeHooks{write: func(node int) error { kill(node); return nil }}
	e := NewReplaceEngine(c, dying.over(c.Dial), ReplaceConfig{})
	if err := e.replaceMember(src); err == nil {
		t.Fatalf("migration onto a dying target committed")
	}
	if st := e.Stats(); st.Migrate.Failures != 1 || st.Migrate.Flips != 0 {
		t.Fatalf("stats = %+v, want 1 failure / 0 moves", st)
	}
	members, _ := c.SlabPlacements(src.ID)
	if len(members) != 1 || members[0].Node != src.Node || members[0].RemoteOff != src.RemoteOff {
		t.Fatalf("placement changed by an aborted migration: %+v", members)
	}
	srcNode, _ := c.Node(src.Node)
	if err := srcNode.WriteAt(src.RemoteOff, make([]byte, 64)); err != nil {
		t.Fatalf("source extent fenced after abort: %v", err)
	}
	if got := readMember(t, c, src); !bytes.Equal(got[64:], want[64:]) {
		t.Fatalf("source bytes corrupted by aborted migration")
	}

	// Target dies between seal and flip: the commit must refuse and the
	// unwind must lift the seal so writers resume.
	c2 := repairRack(t, 2)
	src2, err := allocOne(c2, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillMember(t, c2, src2, 5)
	afterSeal := &nodeHooks{sealed: killOn(c2, 1-src2.Node)}
	e2 := NewReplaceEngine(c2, afterSeal.over(c2.Dial), ReplaceConfig{})
	if err := e2.replaceMember(src2); err == nil {
		t.Fatalf("flip committed onto a node that died after seal")
	}
	members2, _ := c2.SlabPlacements(src2.ID)
	if len(members2) != 1 || members2[0].Node != src2.Node {
		t.Fatalf("placement changed by a post-seal abort: %+v", members2)
	}
	srcNode2, _ := c2.Node(src2.Node)
	if err := srcNode2.WriteAt(src2.RemoteOff, make([]byte, 64)); err != nil {
		t.Fatalf("seal not lifted by the unwind: %v", err)
	}
}

// TestLoadMapScoresAndPolicy unit-tests the load map: EWMA over
// cumulative-counter deltas, counter-reset tolerance, the pending gauge,
// and the placement policy switch it drives.
func TestLoadMapScoresAndPolicy(t *testing.T) {
	c := repairRack(t, 2)

	// First report: delta is the absolute counters, halved by alpha.
	c.ReportLoad(0, LoadSample{ReadBytes: 1000})
	lm := c.LoadMap()
	if len(lm) != 1 || lm[0].Node != 0 || lm[0].Score != 500 {
		t.Fatalf("load map after first report = %+v", lm)
	}
	// Steady counters: delta 0 decays the score.
	c.ReportLoad(0, LoadSample{ReadBytes: 1000})
	if got := c.LoadMap()[0].Score; got != 250 {
		t.Fatalf("score after idle report = %g, want 250", got)
	}
	// Counter reset (node restart): the lower absolute IS the delta, not
	// a giant unsigned wraparound.
	c.ReportLoad(0, LoadSample{ReadBytes: 100})
	if got := c.LoadMap()[0].Score; got != 175 {
		t.Fatalf("score after counter reset = %g, want 175", got)
	}
	// A pending-only sample is a gauge update: EWMA untouched.
	c.ReportLoad(1, LoadSample{PendingBytes: 5000})
	lm = c.LoadMap()
	if lm[1].Score != 0 || lm[1].Pending != 5000 {
		t.Fatalf("pending-only report = %+v", lm[1])
	}

	if err := c.SetPlacementPolicy("bogus"); err == nil {
		t.Fatalf("unknown policy accepted")
	}
	if err := c.SetPlacementPolicy(PolicyLoad); err != nil {
		t.Fatal(err)
	}
	// Node 1 now carries the bigger effective load (pending gauge), so a
	// load-aware carve must land on node 0.
	s, err := allocOne(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s.Node != 0 {
		t.Fatalf("load-aware carve landed on the loaded node %d", s.Node)
	}
	// Anti-affinity: replicas of one group avoid sharing a node even when
	// it is the coldest.
	members, err := c.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if members[0].Node == members[1].Node {
		t.Fatalf("replicas share node %d", members[0].Node)
	}
}

// TestDegradedSetConsistentWithRemove pins that a member's loss is
// decided under the same critical section as the node's removal: a reader
// racing Remove sees either no lost member or exactly the victim's, never
// a survivor reported lost. Afterwards the dead member is still listed by
// SlabPlacements (the retained-entry protocol needs its link key stable).
// Run with -race this also proves the locking.
func TestDegradedSetConsistentWithRemove(t *testing.T) {
	c := repairRack(t, 3)
	members, err := c.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	gid := members[0].ID
	victim := members[1]
	if d := c.DegradedSlabs(); len(d) != 0 {
		t.Fatalf("healthy rack has lost members %+v", d)
	}

	stop := make(chan struct{})
	bad := make(chan string, 1)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := c.DegradedSlabs(); len(d) > 1 || len(d) == 1 && d[0] != victim {
					select {
					case bad <- fmt.Sprintf("lost members %+v mid-remove, want none or %+v", d, victim):
					default:
					}
					return
				}
			}
		}()
	}
	c.Remove(victim.Node)
	close(stop)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}

	if d := c.DegradedSlabs(); len(d) != 1 || d[0] != victim {
		t.Fatalf("lost members after remove = %+v, want %+v", d, victim)
	}
	ms, err := c.SlabPlacements(gid)
	if err != nil || !slices.Equal(ms, members) {
		t.Fatalf("placements after remove = %+v, %v; want %+v", ms, err, members)
	}
}

// TestCarveReplacementRules pins the carve preconditions: a live
// member's target is the coldest unoccupied live node and it is its own
// copy source, a vanished member is refused, and a degraded member is
// planned as a repair from the survivor — the controller, not the caller,
// says which.
func TestCarveReplacementRules(t *testing.T) {
	c := repairRack(t, 3)
	members, err := c.AllocSlab(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	old := members[0]

	// The only non-member node is the target regardless of load order.
	src, target, err := c.CarveReplacement(old)
	if err != nil {
		t.Fatal(err)
	}
	if src != old {
		t.Fatalf("live member copied from %+v, want itself", src)
	}
	if target.Node == members[0].Node || target.Node == members[1].Node {
		t.Fatalf("target %d already holds a member (anti-affinity broken)", target.Node)
	}
	if target.Size != old.Size || target.ID != old.ID || target.Base != old.Base {
		t.Fatalf("target descriptor mismatch: %+v vs old %+v", target, old)
	}
	c.AbandonExtent(target)

	// A member that is no longer in the group is refused.
	gone := old
	gone.RemoteOff += old.Size
	if _, _, err := c.CarveReplacement(gone); err == nil {
		t.Fatalf("carved a target for a vanished member")
	}

	// A degraded member is a repair: copied from the survivor, and never
	// onto its own dead node.
	vn, _ := c.Node(members[1].Node)
	vn.Fail()
	c.HealthSweep()
	src, target, err = c.CarveReplacement(members[1])
	if err != nil {
		t.Fatal(err)
	}
	if src != members[0] {
		t.Fatalf("degraded member copied from %+v, want the survivor %+v", src, members[0])
	}
	if target.Node == members[0].Node || target.Node == members[1].Node {
		t.Fatalf("repair target %d holds a member or is the dead node", target.Node)
	}
	c.AbandonExtent(target)

	// With the survivor gone too there is nothing to copy from, and the rr
	// cursor must not move for a carve that cannot happen.
	sn, _ := c.Node(members[0].Node)
	sn.Fail()
	pos := c.pos
	if _, _, err := c.CarveReplacement(members[1]); err == nil {
		t.Fatalf("planned a repair with no live source")
	}
	if c.pos != pos {
		t.Fatalf("rr cursor moved %d -> %d on a refused carve", pos, c.pos)
	}
}

// tcpRack serves a controller and n memnode daemons on loopback. Each
// daemon registers over the wire and adopts the incarnation it is given,
// so its epoch fence is armed. It returns the daemons' nodes, which the
// controller reaches only through its handles on them.
func tcpRack(t *testing.T, n int) (*Controller, *ControllerServer, []*MemoryNode) {
	t.Helper()
	ctrl := NewController()
	cs, err := ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cc := DialController(cs.Addr())
	t.Cleanup(func() { cc.Close() })
	nodes := make([]*MemoryNode, n)
	for i := range nodes {
		nodes[i] = NewMemoryNode(i, 8<<20)
		ns := mustServeNode(t, nodes[i])
		t.Cleanup(func() { ns.Close() })
		inc, err := cc.RegisterNodeEpoch(i, 8<<20, ns.Addr())
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].SetIncarnation(inc)
	}
	return ctrl, cs, nodes
}

// TestNodeAccessConformance runs one script against both implementations
// of NodeAccess — the in-process adapter and a live memnode daemon — so
// the engine's one copy loop means the same thing over either: a full
// copy of an extent with a non-page-aligned tail is byte-identical, every
// verb stamped with a stale incarnation is refused, a sealed extent
// refuses a write and a whole log batch, and capture drains exactly the
// pages written, once.
func TestNodeAccessConformance(t *testing.T) {
	type backend struct {
		ctrl  *Controller
		dial  NodeDialer
		nodes []*MemoryNode // where the bytes really live
		// shipLog delivers a packed cache-line log to node 0's receiver.
		shipLog func(packed []byte) (int, error)
	}
	backends := map[string]func(t *testing.T) backend{
		"local": func(t *testing.T) backend {
			c := repairRack(t, 2)
			n0, _ := c.Node(0)
			n1, _ := c.Node(1)
			return backend{c, c.Dial, []*MemoryNode{n0.MemoryNode, n1.MemoryNode}, func(packed []byte) (int, error) {
				applied, _, err := n0.UnpackLogFrom(0, copy(n0.logMR.Bytes(), packed))
				return applied, err
			}}
		},
		"tcp": func(t *testing.T) backend {
			c, _, nodes := tcpRack(t, 2)
			return backend{c, c.Dial, nodes, func(packed []byte) (int, error) {
				h, err := c.Dial(0, c.Incarnation(0))
				if err != nil {
					return 0, err
				}
				return h.(*MemoryNodeClient).WriteLogVec(packed)
			}}
		},
	}
	const ps = mem.PageSize
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			b := open(t)
			src := slab.Slab{ID: 1, Node: 0, Epoch: b.ctrl.Incarnation(0), RemoteOff: 3 * ps, Size: 5*ps + 100}
			dst := slab.Slab{ID: 1, Node: 1, Epoch: b.ctrl.Incarnation(1), RemoteOff: 8 * ps, Size: src.Size}
			from, err := b.dial(src.Node, src.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			to, err := b.dial(dst.Node, dst.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			pool0, pool1 := b.nodes[0].PoolBytes(), b.nodes[1].PoolBytes()
			extent := func(pool []byte, s slab.Slab) []byte { return pool[s.RemoteOff : s.RemoteOff+s.Size] }

			// Full copy, short tail page included; not one byte past it.
			want := make([]byte, src.Size)
			for i := range want {
				want[i] = byte(i*7 + 1)
			}
			if err := b.nodes[0].WriteAt(src.RemoteOff, want); err != nil {
				t.Fatal(err)
			}
			e := NewReplaceEngine(b.ctrl, b.dial, ReplaceConfig{})
			m := &move{e: e, c: &e.repair, old: src, src: src, dst: dst, from: from, to: to}
			if err := m.copyAll(); err != nil {
				t.Fatalf("copyAll: %v", err)
			}
			if !bytes.Equal(extent(pool1, dst), want) {
				t.Fatalf("copied extent differs from source")
			}
			if past := pool1[dst.RemoteOff+dst.Size:][:64]; !bytes.Equal(past, make([]byte, 64)) {
				t.Fatalf("copy wrote past the extent's short tail")
			}
			if m.bytes != src.Size {
				t.Fatalf("copied %d bytes, want %d", m.bytes, src.Size)
			}

			// A handle stamped with an incarnation the node is not at is
			// refused on every verb, and leaves no trace.
			stale, err := b.dial(src.Node, src.Epoch+1)
			if err != nil {
				t.Fatal(err)
			}
			page := make([]byte, ps)
			_, drainErr := stale.CaptureDrain(src.RemoteOff, src.Size)
			for verb, err := range map[string]error{
				"ReadPagesInto": stale.ReadPagesInto([]uint64{src.RemoteOff}, [][]byte{page}),
				"WriteVec":      stale.WriteVec(src.RemoteOff, page),
				"CaptureStart":  stale.CaptureStart(src.RemoteOff, src.Size, ps),
				"CaptureDrain":  drainErr,
				"CaptureStop":   stale.CaptureStop(src.RemoteOff, src.Size),
				"Seal":          stale.Seal(src.RemoteOff, src.Size),
				"Unseal":        stale.Unseal(src.RemoteOff, src.Size),
				"LeaseFence":    stale.LeaseFence(src.RemoteOff, src.Size, 1),
				"ReleaseExtent": stale.ReleaseExtent(src.RemoteOff, src.Size),
			} {
				if !errors.Is(err, ErrStaleIncarnation) {
					t.Errorf("%s with a stale incarnation: got %v, want ErrStaleIncarnation", verb, err)
				}
			}
			if !bytes.Equal(extent(pool0, src), want) {
				t.Fatalf("stale write landed")
			}
			// Incarnation 0 means unfenced (pre-§10 placements, raw tooling).
			if unfenced, err := b.dial(src.Node, 0); err != nil {
				t.Fatal(err)
			} else if err := unfenced.ReadPagesInto([]uint64{src.RemoteOff}, [][]byte{page}); err != nil {
				t.Fatalf("unfenced read refused: %v", err)
			}

			// Capture records exactly the pages written — by direct writes
			// (one of them straddling a page boundary) and by a log batch —
			// and a drain empties it.
			line := bytes.Repeat([]byte{0xAB}, mem.CacheLineSize)
			logAt := func(offs ...uint64) []byte {
				entries := make([]cllog.Entry, len(offs))
				for i, off := range offs {
					entries[i] = cllog.Entry{RemoteOff: off, Data: line}
				}
				packed := make([]byte, cllog.PackedSize(entries))
				if _, err := cllog.Pack(entries, packed); err != nil {
					t.Fatal(err)
				}
				return packed
			}
			if err := from.CaptureStart(src.RemoteOff, src.Size, ps); err != nil {
				t.Fatal(err)
			}
			if err := from.WriteVec(src.RemoteOff+ps+8, line); err != nil {
				t.Fatal(err)
			}
			if err := from.WriteVec(src.RemoteOff+4*ps-32, line); err != nil {
				t.Fatal(err)
			}
			if applied, err := b.shipLog(logAt(src.RemoteOff + 5*ps)); err != nil || applied != 1 {
				t.Fatalf("log into a captured extent: applied %d, %v", applied, err)
			}
			dirty, err := from.CaptureDrain(src.RemoteOff, src.Size)
			if err != nil {
				t.Fatal(err)
			}
			wantDirty := []uint64{src.RemoteOff + ps, src.RemoteOff + 3*ps, src.RemoteOff + 4*ps, src.RemoteOff + 5*ps}
			if len(dirty) != len(wantDirty) {
				t.Fatalf("drained pages %v, want %v", dirty, wantDirty)
			}
			for i := range dirty {
				if dirty[i] != wantDirty[i] {
					t.Fatalf("drained pages %v, want %v", dirty, wantDirty)
				}
			}
			if again, err := from.CaptureDrain(src.RemoteOff, src.Size); err != nil || len(again) != 0 {
				t.Fatalf("second drain = %v, %v; want empty", again, err)
			}
			// The delta copy clamps the short tail page like the full copy.
			if err := m.copyPages(dirty); err != nil {
				t.Fatalf("delta copy: %v", err)
			}
			if !bytes.Equal(extent(pool1, dst), extent(pool0, src)) {
				t.Fatalf("target differs from source after the delta copy")
			}
			if err := from.CaptureStop(src.RemoteOff, src.Size); err != nil {
				t.Fatal(err)
			}

			// A sealed extent refuses a write, and a log batch touching it is
			// refused whole — before its clean entry lands. Reads go on.
			if err := from.Seal(src.RemoteOff, src.Size); err != nil {
				t.Fatal(err)
			}
			before := append([]byte(nil), pool0[:2*ps]...)
			if err := from.WriteVec(src.RemoteOff+ps, line); !errors.Is(err, ErrSealed) {
				t.Fatalf("write into a sealed extent = %v, want sealed error", err)
			}
			batch := logAt(ps, src.RemoteOff) // a clean entry, then a sealed one
			if applied, err := b.shipLog(batch); !errors.Is(err, ErrSealed) || applied != 0 {
				t.Fatalf("log batch into a sealed extent: applied %d, %v; want 0, sealed error", applied, err)
			}
			if !bytes.Equal(pool0[:2*ps], before) {
				t.Fatalf("clean entry of a refused batch was applied (torn batch)")
			}
			if err := from.ReadPagesInto([]uint64{src.RemoteOff}, [][]byte{page}); err != nil {
				t.Fatalf("read of a sealed extent refused: %v", err)
			}
			if err := from.Unseal(src.RemoteOff, src.Size); err != nil {
				t.Fatal(err)
			}
			if applied, err := b.shipLog(batch); err != nil || applied != 2 {
				t.Fatalf("log batch after unseal: applied %d, %v", applied, err)
			}
			if err := from.WriteVec(src.RemoteOff+ps, line); err != nil {
				t.Fatalf("write after unseal: %v", err)
			}
		})
	}
}

// TestFailedUnsealIsOwedNotForgotten is the leaked-seal regression test.
// A retired window is released through its node's handle, which drops its
// seal: if the controller listed the window free although that release
// was lost, the next tenant would get it while the daemon kept the seal,
// and every write to the new slab would bounce forever. And on the unwind
// path a lost Unseal would leave the still-current member sealed, wedging
// its writers. Either way the extent must stay on the hold-down list until
// its node acknowledges.
func TestFailedUnsealIsOwedNotForgotten(t *testing.T) {
	failOnce := func() func(int) error {
		failed := false
		return func(int) error {
			if failed {
				return nil
			}
			failed = true
			return errors.New("injected: unseal reply lost")
		}
	}
	line := bytes.Repeat([]byte{0x5A}, mem.CacheLineSize)

	t.Run("retire", func(t *testing.T) {
		ctrl, _, nodes := tcpRack(t, 2)
		old, err := allocOne(ctrl, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		hooks := &nodeHooks{release: failOnce()}
		e := NewReplaceEngine(ctrl, hooks.over(ctrl.Dial), ReplaceConfig{RetireSweeps: 1})
		if err := e.replaceMember(old); err != nil {
			t.Fatalf("migration: %v", err)
		}
		real := nodes[old.Node]

		// Hold-down over, but the release does not land: the window must
		// not be listed free, and the daemon still fences it.
		e.SweepOnce()
		if st := e.Stats(); st.Retired != 0 {
			t.Fatalf("window listed free on the sweep its release failed (retired=%d)", st.Retired)
		}
		if err := real.WriteAt(old.RemoteOff, line); !errors.Is(err, ErrSealed) {
			t.Fatalf("write to the held extent = %v, want sealed error", err)
		}
		// Next sweep the release is acknowledged and the window goes back.
		e.SweepOnce()
		if st := e.Stats(); st.Retired != 1 {
			t.Fatalf("retired = %d after the release landed, want 1", st.Retired)
		}

		// The next tenant of the window can write to it.
		var next slab.Slab
		for i := 0; i < 2 && next.Node != old.Node; i++ {
			if next, err = allocOne(ctrl, old.Size); err != nil {
				t.Fatal(err)
			}
		}
		if next.Node != old.Node || next.RemoteOff != old.RemoteOff {
			t.Fatalf("window not reused: carved %+v, want node %d off %d", next, old.Node, old.RemoteOff)
		}
		tenant, err := ctrl.Dial(next.Node, next.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		if err := tenant.WriteVec(next.RemoteOff, line); err != nil {
			t.Fatalf("fresh carve of the retired window bounces writes: %v", err)
		}
	})

	t.Run("unwind", func(t *testing.T) {
		c := repairRack(t, 2)
		old, err := allocOne(c, 128<<10)
		if err != nil {
			t.Fatal(err)
		}
		// The target dies right after the seal, so the commit refuses and
		// the unwind runs with the source sealed — and its Unseal fails.
		hooks := &nodeHooks{sealed: killOn(c, 1-old.Node), unseal: failOnce()}
		e := NewReplaceEngine(c, hooks.over(c.Dial), ReplaceConfig{})
		if err := e.replaceMember(old); err == nil {
			t.Fatalf("flip committed onto a node that died after seal")
		}
		srcNode, _ := c.Node(old.Node)
		if err := srcNode.WriteAt(old.RemoteOff, line); !errors.Is(err, ErrSealed) {
			t.Fatalf("write after the failed unseal = %v, want sealed error", err)
		}
		// The owed unseal is retried on the next sweep; the member is still
		// current, so nothing is released.
		e.SweepOnce()
		if err := srcNode.WriteAt(old.RemoteOff, line); err != nil {
			t.Fatalf("still-current member left sealed after the retry: %v", err)
		}
		if members, _ := c.SlabPlacements(old.ID); len(members) != 1 || members[0] != old {
			t.Fatalf("placement changed by an unwound migration: %+v", members)
		}
		if st := e.Stats(); st.Retired != 0 || len(e.held) != 0 {
			t.Fatalf("unwound member treated as retired: %+v, held=%v", st, e.held)
		}
	})
}

// TestReplaceEngineRun drives the daemon's loop itself: with a replica
// dead and the load skewed onto the survivor's node, one Run goroutine
// repairs, migrates, and returns when stop closes. The first repair write
// is made to fail, so for one tick the group stays degraded while its
// survivor is the lowest-id slab on the hottest node — the slab a sweep
// would pick first — and the sweep must pass it over: redundancy is
// restored before a group is rebalanced. The flips are read back from
// /debug/events: one cluster.replace per flip, one cluster.replace.abandon
// for the unwound attempt.
func TestReplaceEngineRun(t *testing.T) {
	c := repairRack(t, 4)
	members, err := c.AllocSlab(64<<10, 2) // group 1 on nodes 0 and 1
	if err != nil {
		t.Fatal(err)
	}
	hot := members[0].Node
	// Cycle the rr cursor back to the hot node for a second, unreplicated
	// slab there.
	var single slab.Slab
	for single.Node != hot || single.ID == 0 {
		if single, err = allocOne(c, 64<<10); err != nil {
			t.Fatal(err)
		}
	}
	want := fillMember(t, c, members[0], 21)
	fillMember(t, c, members[1], 21)
	vn, _ := c.Node(members[1].Node)
	vn.Fail()
	c.ReportLoad(hot, LoadSample{ReadBytes: 64 << 20})

	reg := telemetry.New(0)
	writes := 0
	hooks := &nodeHooks{write: func(int) error {
		if writes++; writes == 1 {
			return errors.New("injected: first copy write fails")
		}
		return nil
	}}
	e := NewReplaceEngine(c, hooks.over(c.Dial), ReplaceConfig{
		Interval: 5 * time.Millisecond, HotRatio: 2, RetireSweeps: 1, Metrics: reg,
	})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		e.Run(stop)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := e.Stats(); st.Repair.Flips >= 1 && st.Migrate.Flips >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop did not repair and migrate: %+v, degraded=%d", e.Stats(), c.DegradedCount())
		}
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not return after stop closed")
	}

	if c.DegradedCount() != 0 {
		t.Fatalf("degraded = %d after the loop repaired", c.DegradedCount())
	}
	cur, _ := c.SlabPlacements(members[0].ID)
	for _, m := range cur {
		if got := readMember(t, c, m); !bytes.Equal(got, want) {
			t.Fatalf("member on node %d diverged", m.Node)
		}
	}
	st := e.Stats()
	if st.Repair.Failures != 1 {
		t.Fatalf("repair failures = %d, want the 1 injected", st.Repair.Failures)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cluster.repair.flips"]; got != st.Repair.Flips {
		t.Errorf("cluster.repair.flips = %d, stats say %d", got, st.Repair.Flips)
	}
	if got := snap.Counters["cluster.migrate.moves"]; got != st.Migrate.Flips {
		t.Errorf("cluster.migrate.moves = %d, stats say %d", got, st.Migrate.Flips)
	}

	// The event ring tells the same story, in order.
	var flips, abandons []string
	for _, ev := range reg.Trace().Events() {
		switch ev.Name {
		case "cluster.replace":
			flips = append(flips, ev.Detail)
		case "cluster.replace.abandon":
			abandons = append(abandons, ev.Detail)
		}
	}
	if uint64(len(flips)) != st.Repair.Flips+st.Migrate.Flips {
		t.Fatalf("%d cluster.replace events for %d flips: %q", len(flips), st.Repair.Flips+st.Migrate.Flips, flips)
	}
	if len(abandons) != 1 || !strings.Contains(abandons[0], "cause=repair") || !strings.Contains(abandons[0], "injected") {
		t.Fatalf("abandon events = %q, want one repair abandon carrying the error", abandons)
	}
	// Tick 1: group 1's repair failed, so the sweep moved the other slab
	// off the hot node. Tick 2: group 1 is repaired — and only then may its
	// survivor be rebalanced.
	group1 := fmt.Sprintf("group=%d ", members[0].ID)
	wantFirst := fmt.Sprintf("group=%d from=%d/%d to=", single.ID, single.Node, single.Epoch)
	if !strings.HasPrefix(flips[0], wantFirst) || !strings.Contains(flips[0], "cause=migrate") {
		t.Fatalf("first flip = %q, want the migration of group %d past the degraded group", flips[0], single.ID)
	}
	wantRepair := fmt.Sprintf("group=%d from=%d/%d to=", members[1].ID, members[1].Node, members[1].Epoch)
	if !strings.HasPrefix(flips[1], wantRepair) || !strings.Contains(flips[1], fmt.Sprintf("cause=repair bytes=%d delta_pages=0", members[1].Size)) {
		t.Fatalf("second flip = %q, want the repair of group %d", flips[1], members[1].ID)
	}
	for _, f := range flips[2:] {
		if strings.HasPrefix(f, group1) && !strings.Contains(f, "cause=migrate") {
			t.Fatalf("group 1 flipped again by %q", f)
		}
	}
}
