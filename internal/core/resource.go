package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kona/internal/cllog"
	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/slab"
	"kona/internal/telemetry"
)

// Slab re-exports the coarse allocation unit.
type Slab = slab.Slab

// memberState is the one stored health state of a placement-group member
// (§4.5): a member that cannot take a ship keeps its dirty lines in the
// evictor until it can, and is not read from until it has them.
type memberState uint8

const (
	// memberCurrent holds every line this runtime has shipped.
	memberCurrent memberState = iota
	// memberCatchingUp was installed by a placement flip: its copy was
	// taken from another member, and the dirty lines retained for the
	// member it replaced reach it only when the evictor re-ships them.
	memberCatchingUp
	// memberSealed had a ship carrying its lines bounce off an extent
	// sealed for migration; the lines are retained until a refresh picks
	// up the flip.
	memberSealed
)

// memberEvent is something that happened to a member. Every change of
// member state is one of these four, applied by transition.
type memberEvent uint8

const (
	evFlip    memberEvent = iota // installed by a placement flip
	evSeal                       // a ship carrying its lines bounced off a seal
	evRefresh                    // the placement table was re-read
	evDrained                    // the catch-up it waited for has shipped
)

// memberNext is the whole transition table, [state][event]. Notes on the
// entries that are not obvious:
//
//   - seal wins over catching-up: the fetch path refreshes placements
//     while any member is sealed, and an unreplicated slab has no other
//     way to learn that its only member moved.
//   - a refresh drops the seal fence whether or not it flipped the member
//     away. If the extent is still sealed, the next ship bounces and
//     re-marks it before any read is translated (the fetch hook re-flushes
//     after its refresh); if the seal was lifted (an unwound migration),
//     that ship lands everything retained for the member, including any
//     catch-up it was owed, so current is the truth either way.
//   - drained does not lift a seal, and refresh does not end a catch-up.
var memberNext = [...][4]memberState{
	memberCurrent:    {evFlip: memberCatchingUp, evSeal: memberSealed, evRefresh: memberCurrent, evDrained: memberCurrent},
	memberCatchingUp: {evFlip: memberCatchingUp, evSeal: memberSealed, evRefresh: memberCatchingUp, evDrained: memberCurrent},
	memberSealed:     {evFlip: memberCatchingUp, evSeal: memberSealed, evRefresh: memberCurrent, evDrained: memberSealed},
}

var (
	memberStateNames = [...]string{memberCurrent: "current", memberCatchingUp: "catching-up", memberSealed: "sealed"}
	memberEventNames = [...]string{evFlip: "flip", evSeal: "seal", evRefresh: "refresh", evDrained: "drained"}
)

// member is one row of the member table: a replica of a placement group,
// the link that reaches it, and its state. The link is resolved once, when
// the membership is installed; an incarnation that cannot be linked gets
// the deadLink null object (every ship to it fails and is retained, §10),
// re-tried on each refresh. All fields are guarded by rm.mu; the slab and
// slot never change after install.
type member struct {
	Slab
	slot  int // position in the group; 0 is the primary
	link  nodeLink
	state memberState
}

// readable reports whether a fetch may be served from this member.
func (m *member) readable() bool {
	return m.state == memberCurrent && m.link.healthy()
}

// group is one placement group's row set in the member table, plus what
// the allocator knows about the group's pages. Guarded by rm.mu.
type group struct {
	// members are the group's replicas, primary first.
	members []*member
	// unwritten holds one line mask per page of the slab: the lines no
	// dirty write-back has carried since MallocBlocks set the mask. Remote
	// memory holds nothing of them worth reading, and a fill zeroes them
	// locally (DESIGN.md §16). Nil until the group's first MallocBlocks; a
	// zero mask, like a page never allocated fresh, has every line written.
	unwritten []mem.LineBitmap
	// object holds one bit per page of the slab, set by MallocBlocks for
	// blocks larger than half a page and cleared by Free: every block on the
	// page is larger than half a page, so a fill fetches only the lines a
	// read or write reaches (DESIGN.md §16). Nil until first set.
	object []uint64
	// shared marks a group another runtime may write (shared or attached,
	// share.go): every line of it reads as written, now and later.
	shared bool
	// attached marks a placement group mapped from another runtime
	// (reader-mode shares, DESIGN.md §14). Its slab translates like any
	// other, but the space is never allocated from and releaseAll must not
	// return it to the rack — the owning writer does that.
	attached bool
}

// resourceManager is KLib's Resource Manager (§4.1): it pre-allocates
// disaggregated memory from the rack controller in large slabs, maintains
// the remote-translation map the FPGA consults (§4.4), and owns the
// member table — every replica of every slab, its link and its state.
// With Replicas > 1 every slab is placed on several nodes and reads fail
// over when the primary is down (§4.5).
type resourceManager struct {
	mu sync.Mutex

	cfg   Config
	links links
	ctrl  control
	alloc *slab.Allocator
	trace *telemetry.Trace

	// replicas is the member table: a primary slab ID to the group.
	replicas map[uint64]*group

	// gen advances, under mu, whenever a translation the table gave out
	// may have gone stale: a member changed state or was replaced. A route
	// Lookup stamped with an older gen is translated again before it is
	// read (ReadRange).
	gen atomic.Uint64

	// failovers counts translations that skipped a dead primary.
	failovers uint64
}

func newResourceManager(cfg Config, l links, c control) *resourceManager {
	return &resourceManager{
		cfg:      cfg,
		links:    l,
		ctrl:     c,
		alloc:    slab.NewAllocator(),
		trace:    cfg.Metrics.Trace(),
		replicas: make(map[uint64]*group),
	}
}

// transition applies one event to one member — the only place member
// state is assigned — and emits the change as a core.member event. An
// event that leaves the state where it was is silent. Caller holds rm.mu.
func (rm *resourceManager) transition(m *member, ev memberEvent) {
	from := m.state
	m.state = memberNext[from][ev]
	if m.state != from {
		rm.gen.Add(1)
	}
	if m.state != from && rm.trace != nil {
		rm.trace.Emit("core.member", fmt.Sprintf("group=%d slot=%d node=%d/%d %s→%s cause=%s",
			m.ID, m.slot, m.Node, m.Epoch, memberStateNames[from], memberStateNames[m.state], memberEventNames[ev]))
	}
}

// notify is transition for the evictor, which does not hold rm.mu.
func (rm *resourceManager) notify(m *member, ev memberEvent) {
	rm.mu.Lock()
	rm.transition(m, ev)
	rm.mu.Unlock()
}

// shipBounced records a ship to the given link rejected by a sealed
// extent. The rejection is all-or-nothing and does not name the extent, so
// every member on that link with a line in the bounced batch is now behind
// its retained entries and takes the seal event; members of other groups
// on the node, with nothing in the batch, are missing nothing.
func (rm *resourceManager) shipBounced(key uint64, entries []cllog.Entry) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for _, g := range rm.replicas {
		for _, m := range g.members {
			if m.link.key() != key {
				continue
			}
			for _, en := range entries {
				if en.RemoteOff >= m.RemoteOff && en.RemoteOff < m.RemoteOff+m.Size {
					rm.transition(m, evSeal)
					break
				}
			}
		}
	}
}

// inState counts the table's members in one state.
func (rm *resourceManager) inState(st memberState) int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	n := 0
	for _, g := range rm.replicas {
		for _, m := range g.members {
			if m.state == st {
				n++
			}
		}
	}
	return n
}

// resolve links a slab's hosting incarnation, substituting the deadLink
// null object when it cannot be linked (expelled node, stale incarnation).
func (rm *resourceManager) resolve(s Slab) nodeLink {
	l, err := rm.links.link(s.Node, s.Epoch)
	if err != nil {
		return deadLink{nodeID: s.Node, ep: s.Epoch}
	}
	return l
}

// installLocked enters a group into the member table, resolving each
// member's link. Caller holds rm.mu.
func (rm *resourceManager) installLocked(slabs []Slab) *group {
	members := make([]*member, len(slabs))
	for i, s := range slabs {
		members[i] = &member{Slab: s, slot: i, link: rm.resolve(s)}
	}
	g := &group{members: members}
	rm.replicas[slabs[0].ID] = g
	return g
}

// growLocked requests one more slab (with replicas) from the controller.
func (rm *resourceManager) growLocked() error {
	slabs, err := rm.ctrl.AllocSlab(rm.cfg.SlabSize, rm.cfg.Replicas)
	if err != nil {
		return fmt.Errorf("core: slab allocation: %w", err)
	}
	if err := rm.alloc.Grant(slabs[0]); err != nil {
		return err
	}
	rm.installLocked(slabs)
	return nil
}

// translateLocked resolves addr to the member a fetch reads: the first
// readable one, primary preferred. When no member of the group is
// readable, any healthy one serves — a double fault reads a copy that is
// behind rather than failing the fetch. Caller holds rm.mu.
func (rm *resourceManager) translateLocked(addr mem.Addr) (nodeLink, uint64, error) {
	s, ok := rm.alloc.SlabFor(addr)
	if !ok {
		return nil, 0, fmt.Errorf("core: address %v not in any slab", addr)
	}
	return rm.routeLocked(s, addr)
}

// routeLocked is translateLocked for an address already resolved to its
// group's primary slab s.
func (rm *resourceManager) routeLocked(s Slab, addr mem.Addr) (nodeLink, uint64, error) {
	members := rm.replicas[s.ID].members
	pick := -1
	for i, m := range members {
		if m.readable() {
			pick = i
			break
		}
	}
	for i := 0; pick < 0 && i < len(members); i++ {
		if members[i].link.healthy() {
			pick = i
		}
	}
	if pick < 0 {
		return nil, 0, fmt.Errorf("%w (slab %d)", ErrRemoteUnavailable, s.ID)
	}
	if pick > 0 {
		rm.failovers++
	}
	m := members[pick]
	return m.link, m.RemoteOff + uint64(addr-m.Base), nil
}

// translate is translateLocked for callers outside rm.mu.
func (rm *resourceManager) translate(addr mem.Addr) (nodeLink, uint64, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.translateLocked(addr)
}

// Lookup implements fpga.Translator: the page's unwritten lines, its object
// bit and its route, under one hold of rm.mu — the one acquisition a fill
// makes. A page with no line written is not routed: nothing reads it. A
// page whose translation fails gets no route, and ReadRange reports the
// failure.
func (rm *resourceManager) Lookup(base mem.Addr) fpga.Page {
	p := fpga.Page{Base: base}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	s, ok := rm.alloc.SlabFor(base)
	if !ok {
		return p
	}
	g := rm.replicas[s.ID]
	if g.unwritten != nil {
		p.Unwritten = g.unwritten[pageIndex(s, base)]
	}
	w, bit := pageBit(s, base)
	p.Object = g.object != nil && g.object[w]&bit != 0
	if !p.Unwritten.Full() {
		if l, off, err := rm.routeLocked(s, base); err == nil {
			p.Route = fpga.Route{Via: l, Off: off, Gen: rm.gen.Load()}
		}
	}
	return p
}

// ReadRange implements fpga.Translator over the slab map (readRoute).
func (rm *resourceManager) ReadRange(now simclock.Duration, p fpga.Page, off uint64, buf []byte) (simclock.Duration, error) {
	return rm.readRoute(now, p, func(l nodeLink, poolOff uint64) (simclock.Duration, error) {
		return l.readPage(now, poolOff+off, buf)
	})
}

// ReadGather implements fpga.Translator as ReadRange does, in one
// read-pages round trip, rebasing offs onto the member's pool in place.
func (rm *resourceManager) ReadGather(now simclock.Duration, p fpga.Page, offs []uint64, bufs [][]byte) (simclock.Duration, error) {
	var base uint64
	return rm.readRoute(now, p, func(l nodeLink, poolOff uint64) (simclock.Duration, error) {
		for i := range offs {
			offs[i] += poolOff - base
		}
		base = poolOff
		return l.readPages(now, offs, bufs)
	})
}

// readRoute runs read against the member Lookup routed the page to,
// translating again if the route is missing or the table has changed
// since. A failed read invalidates the link's cached health verdict
// (tcpLink.noteFailure), so the single re-translate probes the node live
// and fails over to a replica that is still answering — without that
// retry, a node dying inside the health cache's TTL would surface as a
// read error instead of a failover.
func (rm *resourceManager) readRoute(now simclock.Duration, p fpga.Page, read func(l nodeLink, poolOff uint64) (simclock.Duration, error)) (simclock.Duration, error) {
	l, _ := p.Route.Via.(nodeLink)
	poolOff := p.Route.Off
	if l == nil || p.Route.Gen != rm.gen.Load() {
		var err error
		if l, poolOff, err = rm.translate(p.Base); err != nil {
			return now, err
		}
	}
	done, err := read(l, poolOff)
	if err == nil {
		return done, nil
	}
	if l, poolOff, terr := rm.translate(p.Base); terr == nil {
		return read(l, poolOff)
	}
	return now, err
}

// placement is one eviction destination for an address.
type placement struct {
	link      nodeLink
	remoteOff uint64 // byte offset of addr within the node's pool
	// batch is the evicting shard's buffer for link; EvictPage fills it in.
	batch *shardBatch
}

// placementsFor returns every configured replica destination for addr.
func (rm *resourceManager) placementsFor(addr mem.Addr) ([]placement, error) {
	return rm.placementsInto(addr, nil, 0)
}

// placementsInto is placementsFor appending into a caller-owned scratch
// slice (reset to length zero first), so the per-eviction lookup does
// not allocate. Placement is pure translation: every configured member is
// returned with the link the table holds for it, live or not. A ship to a
// deadLink fails, the retained-entry protocol keeps the payload, and a
// repair flip later remaps the retained entries onto the replacement.
// Dropping a dead placement here would silently discard the only copy of
// a victim's dirty lines.
//
// writeBack names the lines of addr's page the caller is about to send to
// these destinations (a dirty eviction's dirty lines, all of a VM page
// write-back): they leave the page's unwritten mask in this critical
// section, before any of them can land, so no later fill can zero-fill
// over what remote memory now holds.
func (rm *resourceManager) placementsInto(addr mem.Addr, dst []placement, writeBack mem.LineBitmap) ([]placement, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	dst = dst[:0]
	s, ok := rm.alloc.SlabFor(addr)
	if !ok {
		return dst, fmt.Errorf("core: address %v not in any slab", addr)
	}
	g := rm.replicas[s.ID]
	for _, m := range g.members {
		dst = append(dst, placement{
			link:      m.link,
			remoteOff: m.RemoteOff + uint64(addr-m.Base),
		})
	}
	if len(dst) == 0 {
		return dst, fmt.Errorf("core: address %v has no configured placement", addr)
	}
	if g.unwritten != nil {
		g.unwritten[pageIndex(s, addr)] &^= writeBack
	}
	return dst, nil
}

// pageIndex is the index of addr's page in its slab.
func pageIndex(s Slab, addr mem.Addr) uint64 { return uint64(addr-s.Base) / mem.PageSize }

// pageBit locates the bit of addr's page in its group's page bitmaps.
func pageBit(s Slab, addr mem.Addr) (word, bit uint64) {
	i := pageIndex(s, addr)
	return i / 64, 1 << (i % 64)
}

// markLocked marks every page wholly inside [addr, addr+size): fresh makes
// every line of the page unwritten, and object sets its object bit or
// clears it. A page the allocation only partly covers shares its bytes with
// a neighbour, so it keeps its mask and is never an object page; a page of
// a shared group keeps every line written. Caller holds rm.mu.
func (rm *resourceManager) markLocked(addr mem.Addr, size uint64, fresh, object bool) {
	end := (addr + mem.Addr(size)).AlignDown(mem.PageSize)
	var s Slab
	var g *group
	for p := addr.AlignUp(mem.PageSize); p < end; p += mem.PageSize {
		// Adjacent slabs coalesce in the free list, so an allocation may
		// cross from one group into the next.
		if g == nil || !s.Range().Contains(p) {
			s, _ = rm.alloc.SlabFor(p)
			g = rm.replicas[s.ID]
		}
		if fresh && !g.shared {
			if g.unwritten == nil {
				g.unwritten = make([]mem.LineBitmap, s.Size/mem.PageSize)
			}
			g.unwritten[pageIndex(s, p)] = ^mem.LineBitmap(0)
		}
		g.object = setPageBit(g.object, s, p, object)
	}
}

// setPageBit raises or lowers p's bit in one of a group's page bitmaps,
// making the bitmap on the first raise.
func setPageBit(bm []uint64, s Slab, p mem.Addr, set bool) []uint64 {
	if bm == nil && set {
		bm = make([]uint64, (s.Size/mem.PageSize+63)/64)
	}
	if w, bit := pageBit(s, p); set {
		bm[w] |= bit
	} else if bm != nil {
		bm[w] &^= bit
	}
	return bm
}

// markShared records that another runtime may write the group: every line
// of it reads as written from now on, whatever MallocBlocks is asked.
func (rm *resourceManager) markShared(group uint64) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if g := rm.replicas[group]; g != nil {
		g.shared, g.unwritten = true, nil
	}
}

// extent names a member's pool window by where it starts: the link key
// of the hosting incarnation and the window's base offset in its pool.
type extent struct {
	link uint64
	off  uint64
}

// replicaMove describes one placement change discovered by a refresh: the
// eviction entries buffered for the vacated extent — size bytes from
// from.off on from.link — must be rebased onto newLink at the installed
// member's extent. Keyed by the extent, not the node: two groups that lose
// the same node each get their own rebase and their own catch-up.
type replicaMove struct {
	from    extent
	size    uint64
	newLink nodeLink
	// settles is the member the flip installed; it takes evDrained once
	// the rebased entries have shipped. The evictor reads only its slab
	// (immutable) — link and state belong to rm.mu.
	settles *member
	// retire marks a move whose old member is still alive (a migration
	// flip, not a repair flip). A repair move must outlive the settle —
	// the dead incarnation's key can never carry traffic again, and new
	// evictions for the window must keep rebasing onto the replacement.
	// A migration source, by contrast, stays registered and its pool
	// window is eventually reused by a fresh carve; once the retained
	// entries have drained, the move must be deleted or it would silently
	// rewrite entries bound for the window's next tenant. The TCP link
	// factory has no registry to ask and links any incarnation of a node
	// the controller has an address for — which outlives an expulsion —
	// so over TCP every move retires: the safe side of the two.
	retire bool
}

// refreshPlacements re-fetches every placement group from the controller
// and swaps in the current membership. Every member takes evRefresh first
// (a seal fence does not survive a refresh); a member installed by a flip
// takes evFlip in the same critical section that makes it translatable, so
// no fetch can see it without its catching-up state. It returns the
// replica moves for the evictor to rebase its retained entries, and
// whether anything changed.
func (rm *resourceManager) refreshPlacements() ([]replicaMove, bool, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for _, g := range rm.replicas {
		for _, m := range g.members {
			rm.transition(m, evRefresh)
		}
	}
	var moves []replicaMove
	changed := false
	for gid, g := range rm.replicas {
		old := g.members
		cur, err := rm.ctrl.SlabPlacements(gid)
		if err != nil {
			return moves, changed, fmt.Errorf("core: placement refresh for group %d: %w", gid, err)
		}
		if len(cur) != len(old) {
			return moves, changed, fmt.Errorf("core: placement group %d changed size %d -> %d",
				gid, len(old), len(cur))
		}
		var next []*member // copied from old at the first slot that differs
		for i, n := range cur {
			o := old[i]
			if o.Node == n.Node && o.Epoch == n.Epoch && o.RemoteOff == n.RemoteOff {
				if _, dead := o.link.(deadLink); dead {
					o.link = rm.resolve(o.Slab)
					rm.gen.Add(1)
				}
				continue
			}
			nm := &member{Slab: n, slot: i, link: rm.resolve(n)}
			rm.transition(nm, evFlip)
			// If the old incarnation still links, its node is alive: this
			// is a migration flip, and the move must retire.
			_, oldLinkErr := rm.links.link(o.Node, o.Epoch)
			moves = append(moves, replicaMove{
				from:    extent{link: o.link.key(), off: o.RemoteOff},
				size:    o.Size,
				newLink: nm.link,
				settles: nm,
				retire:  oldLinkErr == nil,
			})
			if next == nil {
				next = append([]*member(nil), old...)
			}
			next[i] = nm
		}
		if next != nil {
			g.members = next
			changed = true
			rm.gen.Add(1)
		}
	}
	return moves, changed, nil
}

// attachGroup maps another runtime's placement group into this address
// space in reader mode: the primary slab registers for translation at
// the writer's base address (same VA, so shared pointers stay valid)
// without joining the free list, and the full membership installs for
// replica failover. Returns the primary slab.
func (rm *resourceManager) attachGroup(members []Slab) (Slab, error) {
	if len(members) == 0 {
		return Slab{}, fmt.Errorf("core: attach of empty placement group")
	}
	primary := members[0]
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if _, dup := rm.replicas[primary.ID]; dup {
		return Slab{}, fmt.Errorf("core: placement group %d already mapped", primary.ID)
	}
	if err := rm.alloc.Attach(primary); err != nil {
		return Slab{}, err
	}
	g := rm.installLocked(members)
	g.shared, g.attached = true, true
	return primary, nil
}

// detachGroup unmaps a reader-mode group installed by attachGroup.
func (rm *resourceManager) detachGroup(group uint64) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if g := rm.replicas[group]; g == nil || !g.attached {
		return
	}
	rm.alloc.Detach(group)
	delete(rm.replicas, group)
}

// groupFor resolves addr to its placement group and primary slab.
func (rm *resourceManager) groupFor(addr mem.Addr) (Slab, bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	s, ok := rm.alloc.SlabFor(addr)
	return s, ok
}

// groupSlab returns the primary slab of a mapped placement group — one
// of this runtime's own or a reader-mode attachment.
func (rm *resourceManager) groupSlab(group uint64) (Slab, bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g := rm.replicas[group]
	if g == nil {
		return Slab{}, false
	}
	return g.members[0].Slab, true
}

// attachedGroupFor resolves addr to a reader-mode attachment, if any.
func (rm *resourceManager) attachedGroupFor(addr mem.Addr) (Slab, bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	s, ok := rm.alloc.SlabFor(addr)
	if !ok || !rm.replicas[s.ID].attached {
		return Slab{}, false
	}
	return s, true
}

// Malloc allocates size bytes of disaggregated memory, growing the slab
// pool as needed. The first access to each page fetches whatever the
// memory node's extent holds.
func (rm *resourceManager) Malloc(size uint64) (mem.Addr, error) { return rm.malloc(size, 0) }

// MallocBlocks is Malloc for memory the caller carves into block-byte
// blocks laid end to end, each written before it is read. Every line of the
// allocation's whole pages is marked unwritten, and a fill fetches only
// lines written back since. When a block is larger than half a page, every
// block on a page is, so those pages are also marked object pages and a
// fill of one fetches only the lines asked for (DESIGN.md §16). This is the
// one place the runtime applies that half-page rule.
func (rm *resourceManager) MallocBlocks(size, block uint64) (mem.Addr, error) {
	if block == 0 {
		return 0, fmt.Errorf("core: zero-size block")
	}
	return rm.malloc(size, block)
}

// malloc allocates size bytes; a nonzero block marks them as MallocBlocks
// says.
func (rm *resourceManager) malloc(size, block uint64) (mem.Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("core: zero-size malloc")
	}
	if size > rm.cfg.SlabSize {
		return 0, fmt.Errorf("core: allocation of %d exceeds slab size %d", size, rm.cfg.SlabSize)
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	addr, err := rm.alloc.Alloc(size)
	for attempt := 0; err != nil && attempt < 2; attempt++ {
		if err := rm.growLocked(); err != nil {
			return 0, err
		}
		addr, err = rm.alloc.Alloc(size)
	}
	if err == nil && block != 0 {
		rm.markLocked(addr, size, true, block > mem.PageSize/2)
	}
	return addr, err
}

// Free releases an allocation. Its pages stop being object pages: the
// space may be handed out again in smaller pieces.
func (rm *resourceManager) Free(addr mem.Addr) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	size, ok := rm.alloc.Size(addr)
	if err := rm.alloc.Free(addr); err != nil {
		return err
	}
	if ok {
		rm.markLocked(addr, size, false, false)
	}
	return nil
}

// releaseAll returns every slab (and replica) to the rack. The address
// space is unusable afterwards; only Close calls it.
func (rm *resourceManager) releaseAll() error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	var firstErr error
	for id, g := range rm.replicas {
		// Reader-mode attachments are not ours to release: the owning
		// writer returns them to the rack.
		if !g.attached {
			for _, m := range g.members {
				if err := rm.ctrl.ReleaseSlab(m.Slab); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		delete(rm.replicas, id)
	}
	rm.alloc = slab.NewAllocator()
	return firstErr
}
