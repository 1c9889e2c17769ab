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

	nodes      map[int]*nodeRecord
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

	// load is the per-node load map (loadmap.go); policy selects how new
	// carves pick nodes ("" = PolicyRR).
	load   map[int]*nodeLoad
	policy string

	// leaseDir is the per-group ownership directory (lease.go, §14). Its
	// leaseMu is ordered OUTSIDE c.mu: lease operations take leaseMu and
	// may then take c.mu (membership snapshots, a member's node record);
	// nothing takes leaseMu while holding c.mu.
	leaseDir
}

// nodeRecord is the controller's one record of a registered memory node:
// its carve accounting and the way to its node, the same on both fabrics.
// Every control verb — probe, fence, release, the replacement copy — goes
// through handle; in process it wraps the MemoryNode, over TCP it is a
// client on the daemon's connection pool. Each registration makes a new
// record, so a record is one incarnation. The accounting is guarded by
// c.mu.
type nodeRecord struct {
	id   int
	node *MemoryNode // in process; nil for a daemon registered over the wire
	pool *pool       // the daemon's connections; nil in process

	capacity, used uint64
	// freed holds released extents, listed once their release was
	// acknowledged, for exact-fit reuse.
	freed []freedExtent
}

// freedExtent is a released extent awaiting reuse.
type freedExtent struct{ off, size uint64 }

// handle reaches the record's node stamped with incarnation epoch. A wire
// handle dials lazily.
func (r *nodeRecord) handle(epoch uint64) NodeAccess {
	if r.node != nil {
		return localNode{r.node, epoch}
	}
	mc := &MemoryNodeClient{pool: r.pool}
	mc.epoch.Store(epoch)
	return mc
}

// failed is the in-process node's failure flag. A daemon's is never set:
// the controller learns that a daemon died by pinging it.
func (r *nodeRecord) failed() bool { return r.node != nil && r.node.Failed() }

// poolKey is the rkey slabs carved on the node carry on the simulated
// fabric; a daemon has none.
func (r *nodeRecord) poolKey() uint32 {
	if r.node == nil {
		return 0
	}
	return r.node.PoolKey()
}

// carve reserves size bytes on the node and returns their offset: a
// released extent of exactly that size first (slabs are uniform in
// practice, so exact-fit reuse suffices), else fresh space. A failed node
// hosts nothing. Caller holds c.mu.
func (r *nodeRecord) carve(size uint64) (uint64, error) {
	if r.failed() {
		return 0, fmt.Errorf("memnode %d: failed", r.id)
	}
	for i, f := range r.freed {
		if f.size == size {
			r.freed = slices.Delete(r.freed, i, i+1)
			return f.off, nil
		}
	}
	if r.used+size > r.capacity {
		return 0, fmt.Errorf("memnode %d: %d bytes requested, %d free", r.id, size, r.capacity-r.used)
	}
	off := r.used
	r.used += size
	return off, nil
}

// VFMemBase is the fake-physical base address at which the controller
// hands out slab mappings: high enough to never collide with CMem
// allocations in the simulated process layout.
const VFMemBase mem.Addr = 1 << 40

// NewController returns an empty controller.
func NewController() *Controller {
	return &Controller{
		nodes:    make(map[int]*nodeRecord),
		nextVA:   VFMemBase,
		groups:   make(map[uint64][]slab.Slab),
		incarn:   make(map[int]uint64),
		leaseDir: leaseDir{leases: make(map[uint64]*leaseState)},
	}
}

// Register adds an in-process memory node's memory to the pool (see admit).
func (c *Controller) Register(n *MemoryNode) error {
	_, err := c.admit(&nodeRecord{id: n.ID(), node: n, capacity: uint64(len(n.PoolBytes()))})
	return err
}

// registerDaemon adds the memory of a memnode daemon that registered over
// the wire, reached through p, and returns the incarnation it was admitted
// under. It makes no round trip: the handle dials on first use.
func (c *Controller) registerDaemon(id int, capacity uint64, p *pool) (uint64, error) {
	return c.admit(&nodeRecord{id: id, pool: p, capacity: capacity})
}

// admit registers r under the next incarnation of its id. Registering an
// id that is already held by a live node is an error (double
// registration); if the incumbent does not answer a ping, it is expelled —
// losing its slabs' members — and r is admitted under a higher incarnation
// (crash-rejoin, §10).
func (c *Controller) admit(r *nodeRecord) (uint64, error) {
	for {
		c.mu.Lock()
		old, dup := c.nodes[r.id]
		if !dup {
			c.incarn[r.id]++
			inc := c.incarn[r.id]
			if r.node != nil {
				r.node.SetIncarnation(inc)
			}
			c.nodes[r.id] = r
			c.rr = append(c.rr, r.id)
			c.epoch++
			c.mu.Unlock()
			return inc, nil
		}
		c.mu.Unlock()
		// Probe outside the lock: a daemon's ping is a round trip.
		if old.handle(0).Ping() == nil {
			return 0, fmt.Errorf("controller: node %d already registered", r.id)
		}
		c.mu.Lock()
		if c.nodes[r.id] == old {
			c.removeLocked(r.id)
		}
		c.mu.Unlock()
		// Loop: re-check for a racing registration before admitting r.
	}
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

// NodeInfo is a registered node as the controller records it: the
// in-process MemoryNode (nil for a daemon registered over the wire) and the
// node's carve accounting as of the lookup.
type NodeInfo struct {
	*MemoryNode
	total, used uint64
}

// Capacity returns the node's total bytes and the bytes carved from it.
func (n NodeInfo) Capacity() (total, used uint64) { return n.total, n.used }

// Node returns a registered node by id.
func (c *Controller) Node(id int) (NodeInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.nodes[id]
	if !ok {
		return NodeInfo{}, false
	}
	return NodeInfo{r.node, r.capacity, r.used}, true
}

// Dial resolves a handle on node stamped with incarnation epoch — the
// replacement engine's NodeDialer on both fabrics. The node refuses every
// verb but Ping from a handle whose incarnation it does not hold.
func (c *Controller) Dial(node int, epoch uint64) (NodeAccess, error) {
	c.mu.Lock()
	r, ok := c.nodes[node]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("controller: node %d not registered", node)
	}
	return r.handle(epoch), nil
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

// ReleaseSlab prunes the member from its placement group and returns its
// memory to its node for reuse (AbandonExtent), returning the node's error
// if the release was not acknowledged. Releasing a member whose node is
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
	_, ok := c.nodes[s.Node]
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
	return c.AbandonExtent(s)
}

// HealthSweep probes every registered node and removes the dead ones,
// returning their ids — the controller-side half of §4.5's failure
// handling. Removal re-verifies node identity under the lock, so a node
// that was replaced (rejoined) between probe and removal is untouched.
func (c *Controller) HealthSweep() []int {
	c.mu.Lock()
	snapshot := make([]*nodeRecord, 0, len(c.nodes))
	for _, r := range c.nodes {
		snapshot = append(snapshot, r)
	}
	c.mu.Unlock()

	var dead []int
	for _, r := range snapshot {
		if r.handle(0).Ping() == nil {
			continue
		}
		c.mu.Lock()
		if c.nodes[r.id] == r {
			c.removeLocked(r.id)
			dead = append(dead, r.id)
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
	r, ok := c.nodes[id]
	c.mu.Unlock()
	if !ok || r.handle(0).Ping() == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes[id] != r {
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
		if occupied[id] {
			continue
		}
		r := c.nodes[id]
		off, err := r.carve(old.Size)
		if err != nil {
			continue
		}
		target = old
		target.Node, target.RemoteKey, target.RemoteOff, target.Epoch = id, r.poolKey(), off, c.incarn[id]
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
		if m == lost || !c.liveLocked(m) || c.nodes[m.Node].failed() {
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
		if c.nodes[target.Node].failed() {
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
	c.rearmFence(target)
	return nil
}

// hostOf returns the record of the node holding extent s, and whether s is
// live (liveLocked).
func (c *Controller) hostOf(s slab.Slab) (*nodeRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[s.Node], c.liveLocked(s)
}

// AbandonExtent returns an extent that is not (or no longer) a group
// member — a carved-but-unflipped target, a flipped-out source past its
// hold-down — to its node, if that node is still around at the same
// incarnation. The release goes to the node through its handle, on either
// fabric, and clears any seal, capture or lease fence left on the extent;
// only once the node acknowledges it is the extent listed free. It returns
// nil once the extent is released or its incarnation is gone, and the
// node's error while the release is owed.
func (c *Controller) AbandonExtent(s slab.Slab) error { return c.abandonVia(c.Dial, s) }

// abandonVia is AbandonExtent through a handle from dial, outside c.mu. An
// extent whose release was not acknowledged stays off the free list, and
// so does one whose node re-registered meanwhile: capacity is lost, never a
// guard inherited by the next tenant.
func (c *Controller) abandonVia(dial NodeDialer, s slab.Slab) error {
	r, live := c.hostOf(s)
	if !live {
		return nil
	}
	n, err := dial(s.Node, s.Epoch)
	if err == nil {
		err = n.ReleaseExtent(s.RemoteOff, s.Size)
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes[s.Node] == r {
		r.freed = append(r.freed, freedExtent{s.RemoteOff, s.Size})
	}
	return nil
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
		r := c.nodes[id]
		off, err := r.carve(size)
		if err != nil {
			continue // node full or failed; try the next
		}
		out = append(out, slab.Slab{
			ID:        gid,
			Base:      c.nextVA,
			Size:      size,
			Node:      id,
			RemoteKey: r.poolKey(),
			RemoteOff: off,
			Epoch:     c.incarn[id],
		})
	}
	if len(out) < replicas {
		// Nothing was armed on the fresh extents: they go straight back
		// on the free lists, with no round trip to the nodes.
		for _, s := range out {
			r := c.nodes[s.Node]
			r.freed = append(r.freed, freedExtent{s.RemoteOff, s.Size})
		}
		return nil, fmt.Errorf("controller: no node can host %d bytes (%d of %d members placed)", size, len(out), replicas)
	}
	c.nextSlabID = gid
	c.nextVA += mem.Addr(size)
	c.groups[gid] = slices.Clone(out)
	return out, nil
}
