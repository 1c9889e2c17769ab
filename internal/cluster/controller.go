package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"kona/internal/mem"
	"kona/internal/slab"
)

// Controller is the centralized rack controller (§4.1): memory nodes
// register their offered capacity with it, and compute nodes request
// coarse slabs from it, off the application's critical path.
//
// Fault tolerance (DESIGN.md §10): the controller tracks every slab as a
// member of a placement group (one group per logical slab, one member per
// replica). When a node dies — detected by HealthSweep, a ship-failure
// report from a compute node's evictor, or a rejoin of the same id — the
// dead members stay in their groups, so compute nodes keep buffering dirty
// lines for them (the retained-entry protocol) until the replacement engine
// copies the slab onto a healthy node and commits an atomic placement flip.
// Node incarnations fence stale placements: every registration of an id
// bumps its incarnation, and a member is lost exactly when its node is not
// registered at the incarnation it was carved under (liveLocked). Nothing
// stores the lost set; it is read off the groups and the registry.
type Controller struct {
	mu sync.Mutex

	nodes      map[int]*MemoryNode
	nextSlabID uint64
	nextVA     mem.Addr
	// rr rotates slab placement across nodes.
	rr  []int
	pos int

	// groups maps a slab/group id to its replica members. All members
	// share the id and Base; they differ in Node/RemoteOff/Epoch. A dead
	// member stays in its group until a repair flips it to a new node.
	groups map[uint64][]slab.Slab

	// incarn is the per-id registration count. It persists across Remove
	// so a rejoining node always gets a higher incarnation than any of
	// its dead predecessors.
	incarn map[int]uint64

	// epoch is the placement epoch: bumped on every register, remove and
	// repair flip. Compute nodes compare it against a cached value to
	// decide when to refresh placements.
	epoch uint64

	// prober decides whether a registered node is alive; injectable so
	// the TCP server can probe over the wire and tests can lie. The
	// default trusts the in-process failure flag.
	prober func(id int, n *MemoryNode) bool

	// load is the per-node load map (loadmap.go); policy selects how new
	// carves pick nodes ("" = PolicyRR).
	load   map[int]*nodeLoad
	policy string

	// leaseDir is the per-group ownership directory (lease.go, §14). Its
	// leaseMu is ordered OUTSIDE c.mu: lease operations take leaseMu and
	// may then take c.mu (membership snapshots, the in-process fencer);
	// nothing takes leaseMu while holding c.mu.
	leaseDir
}

// VFMemBase is the fake-physical base address at which the controller
// hands out slab mappings: high enough to never collide with CMem
// allocations in the simulated process layout.
const VFMemBase mem.Addr = 1 << 40

// NewController returns an empty controller.
func NewController() *Controller {
	return &Controller{
		nodes:    make(map[int]*MemoryNode),
		nextVA:   VFMemBase,
		groups:   make(map[uint64][]slab.Slab),
		incarn:   make(map[int]uint64),
		leaseDir: leaseDir{leases: make(map[uint64]*leaseState)},
	}
}

// SetProber installs the liveness check used to arbitrate rejoins and
// failure reports. The default is the in-process failure flag.
func (c *Controller) SetProber(p func(id int, n *MemoryNode) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prober = p
}

func (c *Controller) proberLocked() func(id int, n *MemoryNode) bool {
	if c.prober != nil {
		return c.prober
	}
	return func(_ int, n *MemoryNode) bool { return !n.Failed() }
}

// Register adds a memory node's offered memory to the pool. Registering
// an id that is already held by a live node is an error (double
// registration); if the incumbent is dead, it is expelled — losing its
// slabs' members — and the newcomer is admitted under a higher incarnation
// (crash-rejoin, §10).
func (c *Controller) Register(n *MemoryNode) error {
	id := n.ID()
	for {
		c.mu.Lock()
		old, dup := c.nodes[id]
		if !dup {
			c.registerLocked(n)
			c.mu.Unlock()
			return nil
		}
		prober := c.proberLocked()
		c.mu.Unlock()
		// Probe outside the lock: the TCP prober performs a network ping.
		if prober(id, old) {
			return fmt.Errorf("controller: node %d already registered", id)
		}
		c.mu.Lock()
		if c.nodes[id] == old {
			c.removeLocked(id)
		}
		c.mu.Unlock()
		// Loop: re-check for a racing registration before admitting n.
	}
}

// registerLocked admits n under the next incarnation of its id.
func (c *Controller) registerLocked(n *MemoryNode) {
	id := n.ID()
	c.incarn[id]++
	n.SetIncarnation(c.incarn[id])
	c.nodes[id] = n
	c.rr = append(c.rr, id)
	c.epoch++
}

// Remove expels a node (e.g. after failure detection). Its slab-group
// members are lost from then on but stay in their groups, so the
// replication layer keeps retaining dirty lines for them until repair
// flips them.
func (c *Controller) Remove(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; !ok {
		return
	}
	c.removeLocked(id)
}

// removeLocked deletes the node. Every member it hosted is lost from the
// same critical section on, since liveLocked reads the registry.
func (c *Controller) removeLocked(id int) {
	delete(c.nodes, id)
	for i, nid := range c.rr {
		if nid == id {
			c.rr = append(c.rr[:i], c.rr[i+1:]...)
			break
		}
	}
	if len(c.rr) > 0 {
		c.pos %= len(c.rr)
	}
	c.epoch++
}

// liveLocked is the one liveness rule for a group member: its node is
// registered at the incarnation the member was carved under. Epoch 0 (a
// descriptor built outside the controller) skips the incarnation check.
func (c *Controller) liveLocked(m slab.Slab) bool {
	_, ok := c.nodes[m.Node]
	return ok && (m.Epoch == 0 || c.incarn[m.Node] == m.Epoch)
}

// Node returns a registered node by id.
func (c *Controller) Node(id int) (*MemoryNode, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	return n, ok
}

// Nodes returns the registered node count.
func (c *Controller) Nodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// NodeIDs returns the registered node ids, ascending.
func (c *Controller) NodeIDs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// SlabsOnNode returns the group members hosted on node at its current
// incarnation, ascending group id. Groups with a lost member are skipped —
// restoring their redundancy comes before rebalancing them.
func (c *Controller) SlabsOnNode(node int) []slab.Slab {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []slab.Slab
	for _, members := range c.groups {
		if slices.ContainsFunc(members, func(m slab.Slab) bool { return !c.liveLocked(m) }) {
			continue
		}
		// Every member left is live, so one on node is at its current
		// incarnation.
		for _, m := range members {
			if m.Node == node {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Incarnation returns the current incarnation of id (0 if never
// registered).
func (c *Controller) Incarnation(id int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incarn[id]
}

// PlacementEpoch returns the placement epoch: it advances on every
// register, remove and repair flip, so compute nodes can cheaply detect
// that cached placements may be stale.
func (c *Controller) PlacementEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// SlabPlacements returns the current members of a placement group, replica
// order preserved (index 0 is the primary). Dead members are returned
// too, deliberately: a member whose node was expelled stays in its group
// until repair flips it, and compute runtimes need the dead descriptor to
// keep its (node, epoch) link key stable for the retained-entry protocol —
// they substitute a deadLink stand-in locally.
func (c *Controller) SlabPlacements(group uint64) ([]slab.Slab, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	members, ok := c.groups[group]
	if !ok {
		return nil, fmt.Errorf("controller: unknown placement group %d", group)
	}
	out := make([]slab.Slab, len(members))
	copy(out, members)
	return out, nil
}

// DegradedSlabs returns the lost members awaiting repair, ordered by
// group id, then node.
func (c *Controller) DegradedSlabs() []slab.Slab {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []slab.Slab
	for _, members := range c.groups {
		for _, m := range members {
			if !c.liveLocked(m) {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// DegradedCount returns the number of lost replicas awaiting repair.
func (c *Controller) DegradedCount() int {
	return len(c.DegradedSlabs())
}

// ReleaseSlab returns a slab's memory to its node for reuse and prunes
// the member from its placement group. Releasing a member whose node is
// gone succeeds — the memory died with the node — and takes it off the
// repair work.
func (c *Controller) ReleaseSlab(s slab.Slab) error {
	c.mu.Lock()
	grouped := false
	emptied := false
	if members, ok := c.groups[s.ID]; ok {
		kept := members[:0]
		for _, m := range members {
			if m.Node == s.Node && m.RemoteOff == s.RemoteOff {
				grouped = true
				continue
			}
			kept = append(kept, m)
		}
		if len(kept) == 0 {
			delete(c.groups, s.ID)
			emptied = true
		} else {
			c.groups[s.ID] = kept
		}
	}
	n, ok := c.nodes[s.Node]
	live := c.liveLocked(s)
	c.mu.Unlock()
	if emptied {
		// The group is gone; its lease history (and version counter) dies
		// with it. Taken outside c.mu — leaseMu is the outer lock.
		c.dropLeaseState(s.ID)
	}
	if !ok {
		if grouped || s.Epoch > 0 {
			// The hosting node is gone; its memory went with it.
			return nil
		}
		return fmt.Errorf("controller: slab %d's node %d not registered", s.ID, s.Node)
	}
	if live {
		n.ReleaseSlab(s.RemoteOff, s.Size)
	}
	return nil
}

// HealthSweep probes every registered node and removes the dead ones,
// returning their ids — the controller-side half of §4.5's failure
// handling. Removal re-verifies node identity under the lock, so a node
// that was replaced (rejoined) between probe and removal is untouched.
func (c *Controller) HealthSweep() []int {
	c.mu.Lock()
	type probeTarget struct {
		id int
		n  *MemoryNode
	}
	snapshot := make([]probeTarget, 0, len(c.nodes))
	for id, n := range c.nodes {
		snapshot = append(snapshot, probeTarget{id, n})
	}
	prober := c.proberLocked()
	c.mu.Unlock()

	var dead []int
	for _, t := range snapshot {
		if prober(t.id, t.n) {
			continue
		}
		c.mu.Lock()
		if c.nodes[t.id] == t.n {
			c.removeLocked(t.id)
			dead = append(dead, t.id)
		}
		c.mu.Unlock()
	}
	sort.Ints(dead)
	return dead
}

// ReportNodeFailure handles a compute node's ship-failure report: the
// node is probed and, if confirmed dead, removed (losing its members).
// Returns whether the node was removed. A false report against a live
// node is a no-op.
func (c *Controller) ReportNodeFailure(id int) bool {
	c.mu.Lock()
	n, ok := c.nodes[id]
	prober := c.proberLocked()
	c.mu.Unlock()
	if !ok {
		return false
	}
	if prober(id, n) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes[id] != n {
		return false
	}
	c.removeLocked(id)
	return true
}

// CarveReplacement plans the replacement of group member old (DESIGN.md
// §10): under one critical section it reads whether old is lost or live
// (liveLocked), picks the member to copy from — a surviving replica for a
// lost member, old itself for a live one — and carves a same-size target
// extent on a node holding no member of the group. A lost member's target
// comes off the rr cursor (so fixed-seed placement is unchanged) and is
// never the lost node at the lost incarnation; a live member's target is
// the coldest node by load order — rebalancing onto a random node defeats
// the point.
func (c *Controller) CarveReplacement(old slab.Slab) (src, target slab.Slab, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	members := c.groups[old.ID]
	found := false
	occupied := make(map[int]bool, len(members))
	for _, m := range members {
		if m == old {
			found = true
		}
		occupied[m.Node] = true
	}
	if !found {
		return slab.Slab{}, slab.Slab{}, fmt.Errorf("controller: group %d member on node %d vanished", old.ID, old.Node)
	}
	// A live member is its own copy source and moves to the coldest node;
	// a lost one is copied from a survivor onto the next node off the rr
	// cursor (a nil order).
	src = old
	var order []int
	if c.liveLocked(old) {
		order = c.loadOrderLocked()
	} else {
		var ok bool
		if src, ok = c.survivorLocked(old); !ok {
			return slab.Slab{}, slab.Slab{}, fmt.Errorf("controller: group %d has no live member to repair node %d from", old.ID, old.Node)
		}
		// A rejoined incarnation of the lost node is a legitimate target;
		// the dead one is not registered, so no carve can pick it.
		occupied[old.Node] = false
	}
	for tries := 0; tries < len(c.rr); tries++ {
		id := c.candidateLocked(order, tries)
		n := c.nodes[id]
		if occupied[id] || n.Failed() {
			continue
		}
		off, err := n.CarveSlab(old.Size)
		if err != nil {
			continue
		}
		target = old
		target.Node, target.RemoteKey, target.RemoteOff, target.Epoch = id, n.PoolKey(), off, c.incarn[id]
		return src, target, nil
	}
	return slab.Slab{}, slab.Slab{}, fmt.Errorf("controller: no target for group %d (member on node %d)", old.ID, old.Node)
}

// candidateLocked returns the tries-th node a carve should consider:
// order[tries] when a load order is given, else the node under the rr
// cursor, which advances.
func (c *Controller) candidateLocked(order []int, tries int) int {
	if order != nil {
		return order[tries]
	}
	id := c.rr[c.pos]
	c.pos = (c.pos + 1) % len(c.rr)
	return id
}

// survivorLocked picks a group member other than lost to copy the slab's
// pages from: registered at its carved incarnation and not failed.
func (c *Controller) survivorLocked(lost slab.Slab) (slab.Slab, bool) {
	for _, m := range c.groups[lost.ID] {
		if m == lost || !c.liveLocked(m) || c.nodes[m.Node].Failed() {
			continue
		}
		return m, true
	}
	return slab.Slab{}, false
}

// CommitReplacement atomically flips member old to the freshly copied
// target: target takes old's replica slot and the placement epoch
// advances. lost is whether old was lost when CarveReplacement planned the
// copy (src != old). The flip is refused — and the caller must
// AbandonExtent(target) — if that changed during the copy (a live member's
// node died, so the image was captured from a corpse), if old is no longer
// a member (a lost member was already resolved), or if the target node
// died or changed incarnation during the copy.
func (c *Controller) CommitReplacement(old, target slab.Slab, lost bool) error {
	err := func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.liveLocked(old) == lost {
			return fmt.Errorf("controller: group %d/node %d lost=%t, was %t when the copy began", old.ID, old.Node, !lost, lost)
		}
		if !c.liveLocked(target) {
			return fmt.Errorf("controller: target node %d (epoch %d) gone", target.Node, target.Epoch)
		}
		if c.nodes[target.Node].Failed() {
			return fmt.Errorf("controller: target node %d failed during copy", target.Node)
		}
		members := c.groups[old.ID]
		for i := range members {
			if members[i] == old {
				members[i] = target
				c.epoch++
				return nil
			}
		}
		return fmt.Errorf("controller: group %d member on node %d vanished during copy", old.ID, old.Node)
	}()
	if err != nil {
		return err
	}
	// The lease table survives the flip: if the group has a live writer,
	// the fresh extent must fence the same stale writers the old one did
	// (a retired live extent keeps its seal through the hold-down, which
	// fences everyone anyway). Outside c.mu — leaseMu is the outer lock.
	// The window between the flip and the refence is safe: the copy
	// targeted a fresh extent nobody else had placements for, and a zombie
	// writer cannot have cached the new placement before this epoch bump
	// propagates.
	c.refenceMember(target)
	return nil
}

// hostOf returns the node holding extent s, and whether it is still
// registered at the incarnation s was carved under.
func (c *Controller) hostOf(s slab.Slab) (*MemoryNode, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[s.Node], c.liveLocked(s)
}

// AbandonExtent returns an extent that is not (or no longer) a group
// member — a carved-but-unflipped target, a flipped-out source past its
// hold-down — to its node, if that node is still around at the same
// incarnation. Releasing through the node also clears any seal, capture
// or lease fence left on the extent.
func (c *Controller) AbandonExtent(s slab.Slab) {
	if n, ok := c.hostOf(s); ok {
		n.ReleaseSlab(s.RemoteOff, s.Size)
	}
}

// AllocSlab places one logical slab of the given size on `replicas`
// distinct memory nodes (round-robin over nodes with room, skipping failed
// ones, or coldest-first under PolicyLoad) and returns one descriptor per
// member, primary first. The members form one placement group: they share
// the group id and one fresh VFMem-space Base, so the compute node
// addresses them identically (§4.5). A plain slab is a group of one.
func (c *Controller) AllocSlab(size uint64, replicas int) ([]slab.Slab, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case size == 0:
		return nil, fmt.Errorf("controller: zero-size slab")
	case replicas <= 0:
		return nil, fmt.Errorf("controller: replicas must be positive")
	case len(c.rr) == 0:
		return nil, fmt.Errorf("controller: no memory nodes registered")
	case len(c.rr) < replicas:
		return nil, fmt.Errorf("controller: %d replicas requested, %d nodes registered", replicas, len(c.rr))
	}
	// PolicyLoad walks nodes coldest-first; the default rr rotation is
	// untouched so fixed-seed runs stay byte-identical.
	var order []int
	if c.policy == PolicyLoad {
		order = c.loadOrderLocked()
	}
	gid := c.nextSlabID + 1
	var out []slab.Slab
	for tries := 0; tries < len(c.rr) && len(out) < replicas; tries++ {
		id := c.candidateLocked(order, tries)
		if slices.ContainsFunc(out, func(s slab.Slab) bool { return s.Node == id }) {
			continue
		}
		n := c.nodes[id]
		off, err := n.CarveSlab(size)
		if err != nil {
			continue // node full or failed; try the next
		}
		out = append(out, slab.Slab{
			ID:        gid,
			Base:      c.nextVA,
			Size:      size,
			Node:      id,
			RemoteKey: n.PoolKey(),
			RemoteOff: off,
			Epoch:     c.incarn[id],
		})
	}
	if len(out) < replicas {
		for _, s := range out {
			c.nodes[s.Node].ReleaseSlab(s.RemoteOff, s.Size)
		}
		return nil, fmt.Errorf("controller: no node can host %d bytes (%d of %d members placed)", size, len(out), replicas)
	}
	c.nextSlabID = gid
	c.nextVA += mem.Addr(size)
	c.groups[gid] = slices.Clone(out)
	return out, nil
}
