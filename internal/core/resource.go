package core

import (
	"fmt"
	"sync"

	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/slab"
)

// Slab re-exports the coarse allocation unit.
type Slab = slab.Slab

// resourceManager is KLib's Resource Manager (§4.1): it pre-allocates
// disaggregated memory from the rack controller in large slabs, maintains
// the remote-translation map the FPGA consults (§4.4), and owns the
// transport links to each memory node. With Replicas > 1 every slab is
// placed on several nodes and reads fail over when the primary is down
// (§4.5).
type resourceManager struct {
	mu sync.Mutex

	cfg   Config
	rack  rack
	alloc *slab.Allocator

	// replicas maps a primary slab ID to all placements (primary first).
	replicas map[uint64][]Slab

	// failovers counts translations that skipped a dead primary.
	failovers uint64

	// suspect holds the link keys of repaired replicas that are not yet
	// readable: a repair flip copies a slab from a surviving member, but
	// dirty lines retained for the dead member during the outage reach
	// the replacement only when the evictor re-ships them. Until that
	// drain completes (evictor.settleMovesLocked → clearSuspect), a read
	// from the repaired copy could return pages missing acknowledged
	// writes, so translation skips suspect members while another live
	// replica exists. Marked in refreshPlacements, in the same critical
	// section that installs the new membership — no translation can ever
	// observe a repaired member without its suspect flag.
	suspect map[uint64]struct{}

	// sealed holds the link keys of members whose extent a migration has
	// sealed: the evictor's last ship was rejected and the dirty lines are
	// retained locally, so the sealed copy is missing acknowledged writes
	// until a placement refresh flips it away and the retained entries
	// drain onto the migration target. Translation skips sealed members
	// like suspect ones while another live replica exists. Cleared
	// wholesale on every placement refresh — if an extent is still sealed
	// afterwards, the next rejected ship re-marks it.
	sealed map[uint64]struct{}

	// sealNotice latches "a ship was rejected by a sealed extent" for the
	// fetch path: Kona's fetch hook sees it (takeSealNotice), refreshes
	// placements to pick up the migration flip, and re-flushes so the
	// retained entries land before the fetch reads remote memory. Without
	// the notice, an unreplicated slab could serve a stale page between
	// the seal and the next Sync.
	sealNotice bool

	// attached holds placement groups mapped from another runtime
	// (reader-mode shares, DESIGN.md §14). Their slabs translate like any
	// other, but the space is never allocated from and releaseAll must
	// not return them to the rack — the owning writer does that.
	attached map[uint64]struct{}
}

func newResourceManager(cfg Config, r rack) *resourceManager {
	return &resourceManager{
		cfg:      cfg,
		rack:     r,
		alloc:    slab.NewAllocator(),
		replicas: make(map[uint64][]Slab),
		suspect:  make(map[uint64]struct{}),
		sealed:   make(map[uint64]struct{}),
		attached: make(map[uint64]struct{}),
	}
}

// noteSealed records that a ship to the given link was rejected because
// its extent is sealed for migration, and latches the seal notice for the
// fetch path.
func (rm *resourceManager) noteSealed(key uint64) {
	rm.mu.Lock()
	rm.sealed[key] = struct{}{}
	rm.sealNotice = true
	rm.mu.Unlock()
}

// takeSealNotice consumes the latched seal notice, returning whether any
// ship was rejected by a sealed extent since the last call.
func (rm *resourceManager) takeSealNotice() bool {
	rm.mu.Lock()
	n := rm.sealNotice
	rm.sealNotice = false
	rm.mu.Unlock()
	return n
}

// clearSuspect marks a repaired replica readable again, once the evictor
// has drained every retained entry remapped onto it.
func (rm *resourceManager) clearSuspect(key uint64) {
	rm.mu.Lock()
	delete(rm.suspect, key)
	rm.mu.Unlock()
}

// growLocked requests one more slab (with replicas) from the controller.
func (rm *resourceManager) growLocked() error {
	if rm.cfg.Replicas > 1 {
		slabs, err := rm.rack.allocReplicated(rm.cfg.SlabSize, rm.cfg.Replicas)
		if err != nil {
			return fmt.Errorf("core: replicated slab allocation: %w", err)
		}
		primary := slabs[0]
		if err := rm.alloc.Grant(primary); err != nil {
			return err
		}
		rm.replicas[primary.ID] = slabs
		return nil
	}
	s, err := rm.rack.allocSlab(rm.cfg.SlabSize)
	if err != nil {
		return fmt.Errorf("core: slab allocation: %w", err)
	}
	if err := rm.alloc.Grant(s); err != nil {
		return err
	}
	rm.replicas[s.ID] = []Slab{s}
	return nil
}

// translateLocked resolves addr to its live read placement, preferring
// the primary and failing over to a live replica. A repaired member
// stays unreadable (suspect) until the evictor has re-shipped the
// retained entries remapped onto it — its copy would otherwise serve
// pages missing acknowledged writes; only a double fault (no other live
// member) falls back to reading a suspect copy. Caller holds rm.mu.
func (rm *resourceManager) translateLocked(addr mem.Addr) (nodeLink, uint64, error) {
	s, ok := rm.alloc.SlabFor(addr)
	if !ok {
		return nil, 0, fmt.Errorf("core: address %v not in any slab", addr)
	}
	allowSuspect := len(rm.suspect) == 0 && len(rm.sealed) == 0
	for {
		for i, pl := range rm.replicas[s.ID] {
			if !allowSuspect {
				k := linkKeyFor(pl.Node, pl.Epoch)
				if _, sus := rm.suspect[k]; sus {
					continue
				}
				// A sealed member is missing the dirty lines retained
				// since its extent was sealed for migration; prefer a
				// replica that took the ship.
				if _, sl := rm.sealed[k]; sl {
					continue
				}
			}
			l, err := rm.rack.link(pl.Node, pl.Epoch)
			if err != nil || !l.healthy() {
				continue
			}
			if i > 0 {
				rm.failovers++
			}
			return l, pl.RemoteOff + uint64(addr-pl.Base), nil
		}
		if allowSuspect {
			return nil, 0, fmt.Errorf("%w (slab %d)", ErrRemoteUnavailable, s.ID)
		}
		allowSuspect = true
	}
}

// translate is translateLocked for callers outside rm.mu.
func (rm *resourceManager) translate(addr mem.Addr) (nodeLink, uint64, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.translateLocked(addr)
}

// ReadRange implements fpga.Translator over the slab map: it reads from
// the page's primary placement, failing over to a live replica. A failed
// read invalidates the link's cached health verdict
// (tcpLink.noteFailure), so the single re-translate probes the node live
// and fails over to a replica that is still answering — without that
// retry, a node dying inside the health cache's TTL would surface as a
// read error instead of a failover.
func (rm *resourceManager) ReadRange(now simclock.Duration, base mem.Addr, off uint64, buf []byte) (simclock.Duration, error) {
	l, poolOff, err := rm.translate(base)
	if err != nil {
		return now, err
	}
	done, err := l.readPage(now, poolOff+off, buf)
	if err == nil {
		return done, nil
	}
	l, poolOff, terr := rm.translate(base)
	if terr != nil {
		return now, err
	}
	return l.readPage(now, poolOff+off, buf)
}

// batchGroup accumulates one node's share of a scatter-gather read.
type batchGroup struct {
	link nodeLink
	offs []uint64
	bufs [][]byte
}

// ReadPagesBatch implements fpga.BatchTranslator: it resolves every base
// to its live placement, groups the pages by destination node, and
// issues one scatter-gather read per node. All bases are resolved before
// any wire traffic, so a translation failure aborts with no partial
// fetch; per-node reads then run back to back (the caller overlaps
// batches with demand work, not nodes with each other — one stalled node
// failing fast beats interleaved partial fills).
func (rm *resourceManager) ReadPagesBatch(now simclock.Duration, bases []mem.Addr, bufs [][]byte) (simclock.Duration, error) {
	if len(bases) != len(bufs) {
		return now, fmt.Errorf("core: batch read: %d bases, %d buffers", len(bases), len(bufs))
	}
	rm.mu.Lock()
	groups := make(map[uint64]*batchGroup, 2)
	var order []*batchGroup
	for i, base := range bases {
		l, off, err := rm.translateLocked(base)
		if err != nil {
			rm.mu.Unlock()
			return now, err
		}
		g, ok := groups[l.key()]
		if !ok {
			g = &batchGroup{link: l}
			groups[l.key()] = g
			order = append(order, g)
		}
		g.offs = append(g.offs, off)
		g.bufs = append(g.bufs, bufs[i])
	}
	rm.mu.Unlock()
	latest := now
	for _, g := range order {
		done, err := g.link.readPages(now, g.offs, g.bufs)
		if err != nil {
			return now, err
		}
		if done > latest {
			latest = done
		}
	}
	return latest, nil
}

// placement is one eviction destination for an address.
type placement struct {
	link      nodeLink
	remoteOff uint64 // byte offset of addr within the node's pool
}

// placementsFor returns every configured replica destination for addr
// (for eviction, which must update all copies).
func (rm *resourceManager) placementsFor(addr mem.Addr) ([]placement, error) {
	return rm.placementsInto(addr, nil)
}

// placementsInto is placementsFor appending into a caller-owned scratch
// slice (reset to length zero first), so the per-eviction lookup does
// not allocate. Placement is pure translation: every configured replica
// is returned, live or not. A replica the rack cannot link (expelled
// node, stale incarnation) gets a deadLink stand-in — the ship to it
// fails, the retained-entry protocol keeps the payload, and a repair
// flip later remaps the retained entries onto the replacement node.
// Dropping a dead placement here would silently discard the only copy
// of a victim's dirty lines.
func (rm *resourceManager) placementsInto(addr mem.Addr, dst []placement) ([]placement, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	dst = dst[:0]
	s, ok := rm.alloc.SlabFor(addr)
	if !ok {
		return dst, fmt.Errorf("core: address %v not in any slab", addr)
	}
	for _, pl := range rm.replicas[s.ID] {
		l, err := rm.rack.link(pl.Node, pl.Epoch)
		if err != nil {
			l = deadLink{nodeID: pl.Node, ep: pl.Epoch}
		}
		dst = append(dst, placement{
			link:      l,
			remoteOff: pl.RemoteOff + uint64(addr-pl.Base),
		})
	}
	if len(dst) == 0 {
		return dst, fmt.Errorf("core: address %v has no configured placement", addr)
	}
	return dst, nil
}

// replicaMove describes one placement change discovered by a refresh: the
// retained eviction entries buffered for the old (node, incarnation) in
// the pool-offset window [oldOff, oldOff+size) must be rebased onto
// newLink at newOff.
type replicaMove struct {
	oldKey  uint64 // linkKeyFor(old node, old incarnation)
	oldOff  uint64 // old member's pool base offset
	size    uint64
	newLink nodeLink
	newOff  uint64 // new member's pool base offset
	// retire marks a move whose old member is still alive (a migration
	// flip, not a repair flip). A repair move must outlive the settle —
	// the dead incarnation's key can never carry traffic again, and new
	// evictions for the window must keep rebasing onto the replacement.
	// A migration source, by contrast, stays registered and its pool
	// window is eventually reused by a fresh carve; once the retained
	// entries have drained, the move must be deleted or it would silently
	// rewrite entries bound for the window's next tenant.
	retire bool
}

// refreshPlacements re-fetches every placement group from the controller
// and swaps in the current membership. It returns the set of replica
// moves (old member replaced by a repaired copy elsewhere) for the
// evictor to remap its retained entries, and whether anything changed.
func (rm *resourceManager) refreshPlacements() ([]replicaMove, bool, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	// Drop the seal fences: any member still sealed after the refresh gets
	// re-marked by the next rejected ship, and a flipped-away member's
	// fence is obsolete.
	for k := range rm.sealed {
		delete(rm.sealed, k)
	}
	var moves []replicaMove
	changed := false
	for gid, old := range rm.replicas {
		cur, err := rm.rack.slabPlacements(gid)
		if err != nil {
			return moves, changed, fmt.Errorf("core: placement refresh for group %d: %w", gid, err)
		}
		if len(cur) != len(old) {
			return moves, changed, fmt.Errorf("core: placement group %d changed size %d -> %d",
				gid, len(old), len(cur))
		}
		same := true
		for i := range cur {
			if cur[i].Node != old[i].Node || cur[i].Epoch != old[i].Epoch ||
				cur[i].RemoteOff != old[i].RemoteOff {
				same = false
				break
			}
		}
		if same {
			continue
		}
		for i := range cur {
			o, n := old[i], cur[i]
			if o.Node == n.Node && o.Epoch == n.Epoch && o.RemoteOff == n.RemoteOff {
				continue
			}
			nl, err := rm.rack.link(n.Node, n.Epoch)
			if err != nil {
				return moves, changed, fmt.Errorf("core: link repaired placement node %d: %w", n.Node, err)
			}
			// The repaired copy is behind until the retained entries are
			// re-shipped onto it; make it unreadable before the install
			// below can route a fetch to it.
			rm.suspect[linkKeyFor(n.Node, n.Epoch)] = struct{}{}
			// If the old member's link still resolves, its node is alive:
			// this is a migration flip, and the move must retire once the
			// retained entries drain (the source window will be reused).
			_, oldLinkErr := rm.rack.link(o.Node, o.Epoch)
			moves = append(moves, replicaMove{
				oldKey:  linkKeyFor(o.Node, o.Epoch),
				oldOff:  o.RemoteOff,
				size:    o.Size,
				newLink: nl,
				newOff:  n.RemoteOff,
				retire:  oldLinkErr == nil,
			})
		}
		rm.replicas[gid] = cur
		changed = true
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
	rm.replicas[primary.ID] = members
	rm.attached[primary.ID] = struct{}{}
	return primary, nil
}

// detachGroup unmaps a reader-mode group installed by attachGroup.
func (rm *resourceManager) detachGroup(group uint64) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if _, ok := rm.attached[group]; !ok {
		return
	}
	rm.alloc.Detach(group)
	delete(rm.replicas, group)
	delete(rm.attached, group)
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
	members := rm.replicas[group]
	if len(members) == 0 {
		return Slab{}, false
	}
	return members[0], true
}

// attachedGroupFor resolves addr to a reader-mode attachment, if any.
func (rm *resourceManager) attachedGroupFor(addr mem.Addr) (Slab, bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	s, ok := rm.alloc.SlabFor(addr)
	if !ok {
		return Slab{}, false
	}
	if _, at := rm.attached[s.ID]; !at {
		return Slab{}, false
	}
	return s, true
}

// Malloc allocates size bytes of disaggregated memory, growing the slab
// pool as needed.
func (rm *resourceManager) Malloc(size uint64) (mem.Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("core: zero-size malloc")
	}
	if size > rm.cfg.SlabSize {
		return 0, fmt.Errorf("core: allocation of %d exceeds slab size %d", size, rm.cfg.SlabSize)
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if addr, err := rm.alloc.Alloc(size); err == nil {
			return addr, nil
		}
		if err := rm.growLocked(); err != nil {
			return 0, err
		}
	}
	return rm.alloc.Alloc(size)
}

// Free releases an allocation.
func (rm *resourceManager) Free(addr mem.Addr) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.alloc.Free(addr)
}

// releaseAll returns every slab (and replica) to the rack. The address
// space is unusable afterwards; only Close calls it.
func (rm *resourceManager) releaseAll() error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	var firstErr error
	for id, placements := range rm.replicas {
		// Reader-mode attachments are not ours to release: the owning
		// writer returns them to the rack.
		if _, att := rm.attached[id]; !att {
			for _, s := range placements {
				if err := rm.rack.release(s); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		delete(rm.replicas, id)
		delete(rm.attached, id)
	}
	rm.alloc = slab.NewAllocator()
	return firstErr
}
