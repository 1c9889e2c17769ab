package core

import (
	"errors"
	"runtime"
	"testing"

	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// pendingRig is an evictor over fake links with one 64-page slab mapped.
type pendingRig struct {
	links *fakeLinks
	rm    *resourceManager
	e     *evictor
	base  mem.Addr
	reg   *telemetry.Registry
}

func newPendingRig(t *testing.T, replicas, shards int) *pendingRig {
	t.Helper()
	cfg := smallConfig()
	cfg.Replicas = replicas
	cfg.Shards = shards
	cfg.Metrics = telemetry.New(0)
	cfg = cfg.withDefaults()
	fl := newFakeLinks(false)
	rm := newResourceManager(cfg, fl, localControl{newCluster(3)})
	base, err := rm.Malloc(64 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return &pendingRig{links: fl, rm: rm, e: newEvictor(rm, cfg), base: base, reg: cfg.Metrics}
}

func (r *pendingRig) page(p int) mem.Addr { return r.base + mem.Addr(p)*mem.PageSize }

// evict pushes page p through the eviction handler with one dirty line.
func (r *pendingRig) evict(t *testing.T, p int) {
	t.Helper()
	var dirty mem.LineBitmap
	dirty.Set(p % mem.LinesPerPage)
	if _, err := r.e.EvictPage(0, fpga.Victim{Base: r.page(p), Data: make([]byte, mem.PageSize), Dirty: dirty}); err != nil {
		t.Fatal(err)
	}
}

// pendingPages returns every shard's pending pages, shard by shard, in
// the order a steal would take them.
func (r *pendingRig) pendingPages() []mem.Addr {
	var out []mem.Addr
	for i := range r.e.shards {
		sh := &r.e.shards[i]
		sh.mu.Lock()
		for _, slot := range sh.pending.order {
			out = append(out, sh.pending.slots[slot]&^1)
		}
		sh.mu.Unlock()
	}
	return out
}

func (r *pendingRig) ships() int {
	n := 0
	for _, l := range r.links.links {
		n += l.ships
	}
	return n
}

// TestStealOrderDedupRestore: a full cycle steals each pending page once,
// in the order the pages became pending (shard by shard), however often a
// page was evicted; a cycle that fails puts every stolen page back exactly
// once; the drain that finally succeeds leaves nothing pending. The
// pending_pages gauge reports each steal's backlog.
func TestStealOrderDedupRestore(t *testing.T) {
	r := newPendingRig(t, 1, 2)
	seq := []int{9, 2, 40, 2, 7, 9, 9, 33, 0}
	for _, p := range seq {
		r.evict(t, p)
	}
	// Shard 0 holds the even pages, shard 1 the odd ones (the slab base is
	// slab-aligned), each in first-eviction order.
	want := []mem.Addr{r.page(2), r.page(40), r.page(0), r.page(9), r.page(7), r.page(33)}
	if r.page(0).Page()&1 != 0 {
		t.Fatalf("slab base %v is not shard-aligned", r.base)
	}
	equal := func(what string, got []mem.Addr) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d pages %v, want %d %v", what, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: page %d is %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	equal("pending before the cycle", r.pendingPages())

	r.e.flushMu.Lock()
	r.e.harvestLocked(true)
	if r.e.stealing.Load() != 1 {
		t.Error("steal did not raise the stealing latch")
	}
	equal("stolen", r.e.stolen)
	if left := r.pendingPages(); len(left) != 0 {
		t.Fatalf("%d pages still pending after the steal", len(left))
	}
	r.e.settleStolenLocked(true)
	r.e.flushMu.Unlock()
	equal("restored", r.pendingPages())
	if got := r.reg.Gauge("core.evict.pending_pages").Value(); got != int64(len(want)) {
		t.Errorf("pending_pages gauge = %d, want %d", got, len(want))
	}

	// The same through whole cycles: a failing ship restores, twice over.
	l := r.rm.replicas[mustGroup(t, r).ID].members[0].link.(*fakeLink)
	l.set(false, errors.New("connection reset"))
	for i := 0; i < 2; i++ {
		if _, err := r.e.Flush(0); err == nil {
			t.Fatal("unreplicated ship failure did not surface")
		}
		equal("pending after a failed cycle", r.pendingPages())
	}
	l.set(false, nil)
	if _, err := r.e.Flush(0); err != nil {
		t.Fatal(err)
	}
	if left := r.pendingPages(); len(left) != 0 || r.e.stealing.Load() != 0 {
		t.Fatalf("after a clean drain: %d pages pending, stealing=%d", len(left), r.e.stealing.Load())
	}
	r.evict(t, 5)
	if _, err := r.e.Flush(0); err != nil {
		t.Fatal(err)
	}
	if got := r.reg.Gauge("core.evict.pending_pages").Value(); got != 1 {
		t.Errorf("pending_pages gauge = %d after a one-page cycle, want 1", got)
	}
}

func mustGroup(t *testing.T, r *pendingRig) Slab {
	t.Helper()
	s, ok := r.rm.groupFor(r.base)
	if !ok {
		t.Fatal("rig base not in any slab")
	}
	return s
}

// TestAppendAfterStealStaysPending: a page evicted while a full cycle is
// shipping — after its shard's steal — is not covered by that cycle, so it
// must still be pending when the cycle settles and its refetch must flush;
// the pages the cycle did cover are not pending and their refetch is free.
func TestAppendAfterStealStaysPending(t *testing.T) {
	r := newPendingRig(t, 1, 1)
	r.evict(t, 1)
	r.evict(t, 2)
	l := r.rm.replicas[mustGroup(t, r).ID].members[0].link.(*fakeLink)
	l.onShip = func() {
		l.onShip = nil
		if r.e.stealing.Load() != 1 {
			t.Error("stealing latch down while the cycle ships")
		}
		r.evict(t, 3) // takes only its shard lock; flushMu is the cycle's
	}
	if _, err := r.e.Flush(0); err != nil {
		t.Fatal(err)
	}
	if got := r.pendingPages(); len(got) != 1 || got[0] != r.page(3) {
		t.Fatalf("pending after the cycle = %v, want only page 3", got)
	}
	before := r.ships()
	for _, p := range []int{1, 2, 4} {
		if _, err := r.e.FlushIfPending(0, r.page(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.ships(); got != before {
		t.Errorf("refetch of shipped or never-evicted pages shipped %d logs", got-before)
	}
	if _, err := r.e.FlushIfPending(0, r.page(3)); err != nil {
		t.Fatal(err)
	}
	if got := r.ships(); got != before+1 {
		t.Errorf("refetch of the late page shipped %d logs, want 1", got-before)
	}
	if left := r.pendingPages(); len(left) != 0 {
		t.Errorf("%d pages pending after the write-before-read flush", len(left))
	}
}

// TestFirstUseDuringHarvestIsCovered: a destination first used while a
// full cycle is between its start and the victim's shard's turn in the
// harvest (a grown node, a flipped member's link) has no merge batch when
// the cycle begins. The page's pending mark is stolen at its shard's turn,
// so its entries must be harvested and shipped in that cycle too — a cycle
// that stole the mark, skipped the entries and settled clean would let the
// refetch pass FlushIfPending and read remote memory without those lines.
func TestFirstUseDuringHarvestIsCovered(t *testing.T) {
	r := newPendingRig(t, 1, 2)
	// Another slab's worth grows the address space onto the next node.
	if _, err := r.rm.Malloc(4 << 20); err != nil {
		t.Fatal(err)
	}
	late := r.base + 4<<20 + mem.PageSize
	g, ok := r.rm.groupFor(late)
	if !ok {
		t.Fatalf("%v not mapped", late)
	}
	farLink := r.rm.replicas[g.ID].members[0].link.(*fakeLink)
	if farLink.key() == r.rm.replicas[mustGroup(t, r).ID].members[0].link.key() {
		t.Fatal("second slab landed on the first slab's node")
	}
	r.evict(t, 2) // shard 0, the destination the evictor knows
	sh0, sh1 := &r.e.shards[0], r.e.shardFor(late)
	if sh1 == sh0 {
		t.Fatalf("page %v is not in shard 1", late)
	}

	// Park the cycle at the head of its harvest, queued on shard 0.
	sh0.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := r.e.Flush(0)
		done <- err
	}()
	for r.e.stealing.Load() == 0 {
		runtime.Gosched()
	}
	var dirty mem.LineBitmap
	dirty.Set(3)
	if _, err := r.e.EvictPage(0, fpga.Victim{Base: late, Data: make([]byte, mem.PageSize), Dirty: dirty}); err != nil {
		t.Fatal(err)
	}
	sh0.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	buffered := 0
	for _, sb := range sh1.batches {
		buffered += len(sb.entries)
	}
	if pending := sh1.pending.has(late); !pending && (buffered != 0 || farLink.ships != 1) {
		t.Fatalf("page not pending after the cycle, yet %d of its entries sit unshipped (%d ships to its node): a refetch would read stale bytes",
			buffered, farLink.ships)
	}
	before := r.ships()
	if _, err := r.e.FlushIfPending(0, late); err != nil {
		t.Fatal(err)
	}
	if r.ships() != before || farLink.ships != 1 {
		t.Errorf("the cycle covered the page, yet its refetch shipped again (%d ships to its node)", farLink.ships)
	}
}

// flipControl is a controller whose view of one group can be overridden,
// to stage a placement flip.
type flipControl struct {
	control
	flipped map[uint64][]Slab
}

func (c *flipControl) SlabPlacements(group uint64) ([]Slab, error) {
	if m, ok := c.flipped[group]; ok {
		return m, nil
	}
	return c.control.SlabPlacements(group)
}

// TestEvictFollowsPlacementFlip: the destination buffer is resolved from
// the member table on every victim, so of two evictions of one slab with a
// placement flip between them, the first is rebased onto and the second
// lands directly in the new member's batch; nothing is left for (or later
// shipped to) the replaced member. Steady-state victims create no further
// batches: each shard resolves a destination once.
func TestEvictFollowsPlacementFlip(t *testing.T) {
	r := newPendingRig(t, 2, 1)
	ctrl := &flipControl{control: r.rm.ctrl, flipped: make(map[uint64][]Slab)}
	r.rm.ctrl = ctrl
	g := mustGroup(t, r)
	old := r.rm.replicas[g.ID].members
	keep, gone := old[0], old[1]
	// The replacement: the node hosting neither member, at another offset.
	repl := gone.Slab
	repl.Node = 3 - keep.Node - gone.Node
	repl.RemoteOff += 1 << 20
	newKey := linkKeyFor(repl.Node, repl.Epoch)

	r.evict(t, 1)
	ctrl.flipped[g.ID] = []Slab{keep.Slab, repl}
	moves, changed, err := r.rm.refreshPlacements()
	if err != nil || !changed || len(moves) != 1 {
		t.Fatalf("refresh: %d moves, changed=%v, err=%v; want one move", len(moves), changed, err)
	}
	r.e.remap(moves)
	r.evict(t, 2)

	sh := &r.e.shards[0]
	find := func(key uint64) *shardBatch {
		for _, sb := range sh.batches {
			if sb.nb.link.key() == key {
				return sb
			}
		}
		return nil
	}
	count := func(key uint64) (entries int, pendingBytes int64) {
		if sb := find(key); sb != nil {
			entries = len(sb.entries)
		}
		if nb := r.e.nodes[key]; nb != nil {
			pendingBytes = nb.pendingBytes.Load()
		}
		return
	}
	if n, p := count(gone.link.key()); n != 0 || p != 0 {
		t.Errorf("replaced member's batch holds %d entries / %d bytes, want none", n, p)
	}
	for _, key := range []uint64{keep.link.key(), newKey} {
		if n, _ := count(key); n != 2 {
			t.Errorf("batch %#x holds %d entries, want 2 (one per eviction)", key, n)
		}
	}
	nb := r.e.nodes[newKey]
	if nb == nil || find(newKey).nb != nb {
		t.Fatal("the shard's buffer for the new member is not tied to its merge batch")
	}
	// Entries for the new member carry its extent, rebased or direct.
	for i, en := range find(newKey).entries {
		if lo := repl.RemoteOff; en.RemoteOff < lo || en.RemoteOff >= lo+repl.Size {
			t.Errorf("entry %d for the new member at pool offset %#x, outside its extent", i, en.RemoteOff)
		}
	}
	for p := 3; p < 20; p++ {
		r.evict(t, p)
	}
	if len(sh.batches) != 3 || len(r.e.orderSnapshot()) != 3 {
		t.Errorf("%d shard buffers / %d merge batches after 19 victims, want 3 / 3",
			len(sh.batches), len(r.e.orderSnapshot()))
	}
	if _, err := r.e.Flush(0); err != nil {
		t.Fatal(err)
	}
	if l := gone.link.(*fakeLink); l.ships != 0 {
		t.Errorf("replaced member was shipped to %d times", l.ships)
	}
	if l := r.links.links[repl.Node]; l == nil || l.ships != 1 {
		t.Error("new member did not receive exactly one ship")
	}
}
