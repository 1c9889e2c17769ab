package cluster

import (
	"fmt"
	"sort"
)

// Load map (DESIGN.md §13): the controller aggregates per-node traffic
// signals — memnode-reported cumulative read/write counters plus
// compute-side pending-eviction gauges — into one score per node. The
// score is an EWMA of the byte delta between consecutive reports, so it
// needs no wall clock (reports arrive on the sweep cadence) and stays
// deterministic in simulation. The placement policy and the migration
// engine both consume it.

// loadEWMAAlpha weights the newest report delta; history decays by
// (1-alpha) per report, so a node cools within a handful of sweeps after
// its traffic moves away.
const loadEWMAAlpha = 0.5

// nodeLoad is one node's scored state.
type nodeLoad struct {
	last    LoadSample // last cumulative counters seen
	score   float64    // EWMA of per-report delta bytes
	pending uint64     // latest compute-side pending gauge
	reports uint64
}

// NodeLoad is the exported snapshot of one node's load-map entry.
type NodeLoad struct {
	Node    int
	Score   float64
	Pending uint64
	Reports uint64
	Totals  LoadSample
}

// ReportLoad folds one load sample for node into the map and returns the
// node's entry after it. Counter fields are cumulative; a sample whose
// counters run backwards (node restart) contributes its absolute values as
// the delta. Samples carrying only PendingBytes (compute-side reports)
// update the gauge without touching the EWMA.
func (c *Controller) ReportLoad(node int, s LoadSample) NodeLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.load == nil {
		c.load = make(map[int]*nodeLoad)
	}
	nl := c.load[node]
	if nl == nil {
		nl = &nodeLoad{}
		c.load[node] = nl
	}
	if counters := s.ReadBytes + s.WriteBytes + s.ReadOps + s.WriteOps; counters > 0 || nl.reports > 0 {
		delta := float64(sub(s.ReadBytes, nl.last.ReadBytes) + sub(s.WriteBytes, nl.last.WriteBytes))
		nl.score = (1-loadEWMAAlpha)*nl.score + loadEWMAAlpha*delta
		nl.last = s
		nl.reports++
	}
	if s.PendingBytes > 0 || nl.pending > 0 {
		nl.pending = s.PendingBytes
	}
	return nl.snapshot(node)
}

// sub is a counter-reset-tolerant delta: a counter that ran backwards
// restarted from zero, so the new absolute value IS the delta.
func sub(now, prev uint64) uint64 {
	if now < prev {
		return now
	}
	return now - prev
}

// loadScoreLocked is a node's effective load: traffic EWMA plus the
// compute-side pending backlog (bytes already committed toward it).
func (c *Controller) loadScoreLocked(node int) float64 {
	nl := c.load[node]
	if nl == nil {
		return 0
	}
	return nl.score + float64(nl.pending)
}

func (nl *nodeLoad) snapshot(id int) NodeLoad {
	return NodeLoad{Node: id, Score: nl.score, Pending: nl.pending, Reports: nl.reports, Totals: nl.last}
}

// LoadMap snapshots every node's load entry, ordered by id — the
// /metrics and experiment surface.
func (c *Controller) LoadMap() []NodeLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeLoad, 0, len(c.load))
	for id, nl := range c.load {
		out = append(out, nl.snapshot(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// PullNodeLoads scrapes every registered in-process node's cumulative
// counters into the load map — the sim-mode (and single-process) feed
// that replaces the memnode daemons' push RPCs.
func (c *Controller) PullNodeLoads() {
	c.mu.Lock()
	type pair struct {
		id int
		n  *MemoryNode
	}
	nodes := make([]pair, 0, len(c.nodes))
	for id, r := range c.nodes {
		if r.node != nil {
			nodes = append(nodes, pair{id, r.node})
		}
	}
	c.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	for _, p := range nodes {
		c.ReportLoad(p.id, p.n.LoadCounters())
	}
}

// Placement policies.
const (
	// PolicyRR is blind round-robin — the deterministic default; fixed-
	// seed simulation runs are byte-identical to pre-load-map builds.
	PolicyRR = "rr"
	// PolicyLoad places new slabs on the least-loaded nodes (load-map
	// score, then used-capacity fraction, then id), with anti-affinity to
	// nodes already holding a member of the same group.
	PolicyLoad = "load"
)

// SetPlacementPolicy selects how new slab carves pick nodes.
func (c *Controller) SetPlacementPolicy(p string) error {
	switch p {
	case PolicyRR, PolicyLoad:
	default:
		return fmt.Errorf("controller: unknown placement policy %q", p)
	}
	c.mu.Lock()
	c.policy = p
	c.mu.Unlock()
	return nil
}

// PlacementPolicy returns the active policy ("rr" when unset).
func (c *Controller) PlacementPolicy() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.policy == "" {
		return PolicyRR
	}
	return c.policy
}

// loadOrderLocked returns the registered node ids sorted coldest-first:
// ascending load score, then ascending used-capacity fraction, then id
// (the deterministic tie-break).
func (c *Controller) loadOrderLocked() []int {
	ids := make([]int, 0, len(c.rr))
	ids = append(ids, c.rr...)
	type rank struct {
		score float64
		frac  float64
	}
	ranks := make(map[int]rank, len(ids))
	for _, id := range ids {
		r := c.nodes[id]
		f := 0.0
		if r.capacity > 0 {
			f = float64(r.used) / float64(r.capacity)
		}
		ranks[id] = rank{score: c.loadScoreLocked(id), frac: f}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ranks[ids[i]], ranks[ids[j]]
		if a.score != b.score {
			return a.score < b.score
		}
		if a.frac != b.frac {
			return a.frac < b.frac
		}
		return ids[i] < ids[j]
	})
	return ids
}
