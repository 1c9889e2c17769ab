package cluster

import (
	"fmt"
	"time"

	"kona/internal/mem"
	"kona/internal/slab"
	"kona/internal/telemetry"
)

// Member replacement (DESIGN.md §10, §13). A slab has replicas, and when
// one must live somewhere else — its node died (repair) or its node is
// hot (migration) — the rack copies it onto a fresh extent and flips the
// placement. Both are one procedure, replaceMember:
//
//	CarveReplacement    — controller picks copy source and target
//	(live) CaptureStart — source records pages dirtied from here on
//	full copy           — budgeted, page-batched
//	(live) drain deltas — bounded passes until the dirty set runs dry
//	(live) Seal         — writes to the old extent now fail loudly
//	(live) final drain  — the image is exact; nothing can change it
//	CommitReplacement   — member flip + placement-epoch bump
//	(live) CaptureStop  — and the old extent retires after a hold-down
//
// A lost member is copied from a surviving replica and the bracketed
// steps are skipped: dirty lines landed during the copy are retained by
// the compute-side evictor and replayed onto the new member after the
// flip, so the copy need not chase writers. A live member is its own
// source, so the capture/seal steps are what keep a concurrent write
// from being lost (§13). Which case applies is the controller's liveness
// rule, never the caller's choice.

const (
	// copyBatchPages pages of copyPageSize bytes travel per read round
	// trip; copyPageSize is also the dirty-capture granularity.
	copyBatchPages = 16
	copyPageSize   = uint64(mem.PageSize)
	// minHotScore is the hot-node score below which the rack is idle and
	// nothing migrates.
	minHotScore = 1
	// maxDrainPasses bounds the pre-seal delta copies: a writer hotter
	// than the copy budget must not stall a migration forever — it
	// converges at the seal instead.
	maxDrainPasses = 8
)

// NodeAccess is the controller's one handle on a memory node at one
// incarnation, the same on both fabrics: the replacement engine's page
// reads into caller buffers, segment writes, and the source-side dirty
// capture and write seal a live copy needs, plus the lease fence, the
// liveness ping and the release of an extent. Every verb but Ping is
// fenced by the incarnation the handle was made for, so a node that
// crash-rejoined mid-copy refuses the stale operation instead of serving
// wrong-generation bytes. *MemoryNodeClient is the wire implementation;
// localNode wraps an in-process node. Controller.Dial hands them out.
type NodeAccess interface {
	ReadPagesInto(offsets []uint64, bufs [][]byte) error
	WriteVec(offset uint64, segs ...[]byte) error
	CaptureStart(off, size, pageLen uint64) error
	CaptureDrain(off, size uint64) ([]uint64, error)
	CaptureStop(off, size uint64) error
	Seal(off, size uint64) error
	Unseal(off, size uint64) error
	LeaseFence(off, size, holder uint64) error
	ReleaseExtent(off, size uint64) error
	Ping() error
}

// NodeDialer resolves a member's (node, incarnation) to a handle stamped
// with that incarnation.
type NodeDialer func(node int, epoch uint64) (NodeAccess, error)

// localNode is the in-process handle: it drives one MemoryNode through its
// locked accessors, checking the node's incarnation on every fenced verb
// as the daemon does.
type localNode struct {
	n     *MemoryNode
	epoch uint64
}

// fenced runs f on the node unless it is not at the handle's incarnation.
func (l localNode) fenced(f func(n *MemoryNode)) error {
	err := l.n.checkIncarnation(l.epoch)
	if err == nil {
		f(l.n)
	}
	return err
}

func (l localNode) ReadPagesInto(offsets []uint64, bufs [][]byte) error {
	if err := l.n.checkIncarnation(l.epoch); err != nil {
		return err
	}
	return l.n.ReadPagesInto(offsets, bufs)
}

func (l localNode) WriteVec(offset uint64, segs ...[]byte) error {
	err := l.n.checkIncarnation(l.epoch)
	for i := 0; err == nil && i < len(segs); i++ {
		err = l.n.WriteAt(offset, segs[i])
		offset += uint64(len(segs[i]))
	}
	return err
}

func (l localNode) CaptureStart(off, size, pageLen uint64) error {
	return l.fenced(func(n *MemoryNode) { n.StartCapture(off, size, pageLen) })
}

func (l localNode) CaptureDrain(off, size uint64) (offs []uint64, err error) {
	err = l.fenced(func(n *MemoryNode) { offs = n.DrainCapture(off, size) })
	return offs, err
}

func (l localNode) CaptureStop(off, size uint64) error {
	return l.fenced(func(n *MemoryNode) { n.StopCapture(off, size) })
}

func (l localNode) Seal(off, size uint64) error {
	return l.fenced(func(n *MemoryNode) { n.Seal(off, size) })
}

func (l localNode) Unseal(off, size uint64) error {
	return l.fenced(func(n *MemoryNode) { n.Unseal(off, size) })
}

func (l localNode) LeaseFence(off, size, holder uint64) error {
	return l.fenced(func(n *MemoryNode) { n.LeaseFence(off, size, holder) })
}

func (l localNode) ReleaseExtent(off, size uint64) error {
	return l.fenced(func(n *MemoryNode) { n.ReleaseExtent(off, size) })
}

// Ping answers unless the node has failed.
func (l localNode) Ping() error {
	if l.n.Failed() {
		return fmt.Errorf("memnode %d: failed", l.n.ID())
	}
	return nil
}

// ReplaceConfig tunes the replacement engine.
type ReplaceConfig struct {
	// RepairBytesPerSec and MigrateBytesPerSec cap each cause's copy
	// traffic (<= 0: unlimited). Copies share the fabric with fetch and
	// evict; the budgets keep them from starving the data path.
	RepairBytesPerSec, MigrateBytesPerSec float64
	// Interval is the Run loop's tick period (default 50ms).
	Interval time.Duration
	// HotRatio triggers a migration when the hottest node's score
	// exceeds HotRatio times the coldest's. 0 disables migration; a ratio
	// in (0, 1] would move a slab on every sweep and means 2.
	HotRatio float64
	// MaxMovesPerSweep bounds migrations per sweep (default 1).
	MaxMovesPerSweep int
	// RetireSweeps is how many sweeps a migrated-away extent stays
	// sealed before its memory is released (default 4).
	RetireSweeps int
	// Metrics, if set, receives the cluster.repair.* and
	// cluster.migrate.* counters and the cluster.replace events.
	Metrics *telemetry.Registry
}

func (c ReplaceConfig) withDefaults() ReplaceConfig {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.HotRatio > 0 && c.HotRatio <= 1 {
		c.HotRatio = 2.0
	}
	if c.MaxMovesPerSweep <= 0 {
		c.MaxMovesPerSweep = 1
	}
	if c.RetireSweeps <= 0 {
		c.RetireSweeps = 4
	}
	return c
}

// CauseStats is the lifetime work done for one cause of replacement.
type CauseStats struct {
	// Flips counts committed replacements (member flipped).
	Flips uint64
	// Failures counts attempts abandoned after a target was carved.
	Failures uint64
	// BytesCopied is the total page payload moved (full copy + deltas).
	BytesCopied uint64
}

// ReplaceStats is a snapshot of the engine's lifetime work.
type ReplaceStats struct {
	// Repair is lost members replaced from a survivor; Migrate is live
	// members moved off a hot node.
	Repair, Migrate CauseStats
	// DeltaPages counts pages re-copied from capture drains.
	DeltaPages uint64
	// Retired counts migrated-away extents whose hold-down expired and
	// whose memory was released.
	Retired uint64
}

// cause is one reason a member is replaced, with its own copy budget and
// counters.
type cause struct {
	name                   string
	budget                 *byteBudget
	flips, failures, bytes *telemetry.Counter
}

func (c *cause) init(reg *telemetry.Registry, name, flips string, bytesPerSec float64) {
	c.name = name
	c.budget = newByteBudget(bytesPerSec, 0)
	c.flips = reg.Counter("cluster." + name + "." + flips)
	c.failures = reg.Counter("cluster." + name + ".failures")
	c.bytes = reg.Counter("cluster." + name + ".bytes_copied")
}

func (c *cause) stats() CauseStats {
	return CauseStats{Flips: c.flips.Value(), Failures: c.failures.Value(), BytesCopied: c.bytes.Value()}
}

// heldExtent is one extent the engine still owes its node a verb for: a
// migrated-away source in its sealed hold-down (retired: its release, which
// drops the seal with every other guard, is owed once the hold-down is
// over), or the still-current member of an unwound migration whose Unseal
// did not land yet.
type heldExtent struct {
	s       slab.Slab
	sweeps  int
	retired bool
}

// ReplaceEngine is the controller-side background loop that keeps every
// placement group where it should be: it re-replicates each member the
// controller reports lost (DegradedSlabs), and — when the load map shows
// an imbalance past HotRatio — live-migrates slabs off the hottest node,
// both through replaceMember under a byte budget. Not safe for concurrent
// use: one goroutine (Run, or a test's hand cranks) drives it.
type ReplaceEngine struct {
	ctrl *Controller
	dial NodeDialer
	cfg  ReplaceConfig

	repair, migrate     cause
	deltaPages, retired *telemetry.Counter
	mDegraded           *telemetry.Gauge
	mRetiring           *telemetry.Gauge
	trace               *telemetry.Trace

	held []heldExtent

	// The copy loop's scratch: one batch buffer and its per-page views.
	buf  []byte
	bufs [][]byte
}

// NewReplaceEngine wires an engine to a controller and a way to reach
// its nodes.
func NewReplaceEngine(ctrl *Controller, dial NodeDialer, cfg ReplaceConfig) *ReplaceEngine {
	cfg = cfg.withDefaults()
	// The counters are Stats' only copy, so they need a registry even
	// when telemetry is off; trace events stay off with it.
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.New(0)
	}
	e := &ReplaceEngine{
		ctrl:       ctrl,
		dial:       dial,
		cfg:        cfg,
		deltaPages: reg.Counter("cluster.migrate.delta_pages"),
		retired:    reg.Counter("cluster.migrate.retired"),
		mDegraded:  reg.Gauge("cluster.repair.degraded"),
		mRetiring:  reg.Gauge("cluster.migrate.retiring"),
		trace:      cfg.Metrics.Trace(),
		buf:        make([]byte, copyBatchPages*copyPageSize),
		bufs:       make([][]byte, copyBatchPages),
	}
	e.repair.init(reg, "repair", "flips", cfg.RepairBytesPerSec)
	e.migrate.init(reg, "migrate", "moves", cfg.MigrateBytesPerSec)
	return e
}

// Stats returns the engine's lifetime counters, read back from its
// registry: engines sharing one report their sum.
func (e *ReplaceEngine) Stats() ReplaceStats {
	return ReplaceStats{
		Repair:     e.repair.stats(),
		Migrate:    e.migrate.stats(),
		DeltaPages: e.deltaPages.Value(),
		Retired:    e.retired.Value(),
	}
}

// Run ticks every Interval until stop closes — the daemon's background
// loop. Each tick sweeps node health, repairs every degraded member, ages
// the hold-downs, then migrates: restoring redundancy outranks
// rebalancing, and because one goroutine does both, a repair and a
// migration never race inside one controller process.
func (e *ReplaceEngine) Run(stop <-chan struct{}) {
	t := time.NewTicker(e.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			e.ctrl.HealthSweep()
			e.RepairOnce()
			e.SweepOnce()
		}
	}
}

// RepairOnce attempts every lost member once and returns the number of
// successful flips. Members that cannot be repaired yet (no live source,
// no healthy target) stay lost for the next pass.
func (e *ReplaceEngine) RepairOnce() int {
	flips := 0
	for _, lost := range e.ctrl.DegradedSlabs() {
		if err := e.replaceMember(lost); err == nil {
			flips++
		}
	}
	e.mDegraded.Set(int64(e.ctrl.DegradedCount()))
	return flips
}

// SweepOnce runs one rebalance pass: age the hold-downs, then migrate up
// to MaxMovesPerSweep slabs off the hottest node if the imbalance clears
// HotRatio. It returns the number of committed moves.
func (e *ReplaceEngine) SweepOnce() int {
	e.ageHoldDowns()
	moves := 0
	for moves < e.cfg.MaxMovesPerSweep {
		hot, ok := e.pickMove()
		if !ok || e.replaceMember(hot) != nil {
			break
		}
		moves++
	}
	e.mRetiring.Set(int64(len(e.held)))
	return moves
}

// pickMove selects the slab to migrate: the lowest-id group member on
// the hottest node, when that node's score clears both the minHotScore
// floor and HotRatio times the coldest node's score.
func (e *ReplaceEngine) pickMove() (slab.Slab, bool) {
	if e.cfg.HotRatio <= 0 {
		return slab.Slab{}, false
	}
	ids := e.ctrl.NodeIDs()
	if len(ids) < 2 {
		return slab.Slab{}, false
	}
	scores := make(map[int]float64, len(ids))
	for _, nl := range e.ctrl.LoadMap() {
		scores[nl.Node] = nl.Score + float64(nl.Pending)
	}
	hot, cold := ids[0], ids[0]
	for _, id := range ids[1:] {
		if scores[id] > scores[hot] {
			hot = id
		}
		if scores[id] < scores[cold] {
			cold = id
		}
	}
	if hot == cold || scores[hot] < minHotScore || scores[hot] < e.cfg.HotRatio*scores[cold] {
		return slab.Slab{}, false
	}
	for _, s := range e.ctrl.SlabsOnNode(hot) {
		return s, true
	}
	return slab.Slab{}, false
}

// move is one replacement in flight.
type move struct {
	e             *ReplaceEngine
	c             *cause
	old, src, dst slab.Slab // the member leaving, the copy source, the target
	from, to      NodeAccess
	bytes         uint64
	deltaPages    uint64
}

// replaceMember moves group member old onto a freshly carved extent and
// flips the placement (the procedure at the top of this file). Any error
// after the carve unwinds: the placement is untouched, a live source is
// unsealed and uncaptured, and the target goes back to its node.
func (e *ReplaceEngine) replaceMember(old slab.Slab) (err error) {
	src, target, err := e.ctrl.CarveReplacement(old)
	if err != nil {
		return err
	}
	// A live member is its own copy source; a lost one is copied from a
	// survivor.
	live := src == old
	m := &move{e: e, c: &e.repair, old: old, src: src, dst: target}
	if live {
		m.c = &e.migrate
	}
	sealed := false
	defer func() {
		if err == nil {
			return
		}
		if live && m.from != nil {
			// Writers must resume against the still-current member. An
			// unseal that did not land is owed, not forgotten.
			if sealed && !e.unsealed(old) {
				e.hold(heldExtent{s: old})
			}
			// Best effort: a leftover capture costs the daemon a dirty set,
			// and the next CaptureStart on the extent resets it.
			_ = m.from.CaptureStop(old.RemoteOff, old.Size)
		}
		// Nothing is armed on the target yet; a release that does not land
		// costs its capacity, nothing else.
		_ = e.ctrl.abandonVia(e.dial, target)
		m.c.failures.Inc()
		if e.trace != nil {
			e.trace.Emit("cluster.replace.abandon", fmt.Sprintf("%s err=%v", m, err))
		}
	}()
	if m.from, err = e.dial(src.Node, src.Epoch); err != nil {
		return err
	}
	if m.to, err = e.dial(target.Node, target.Epoch); err != nil {
		return err
	}
	if live {
		if err = m.from.CaptureStart(src.RemoteOff, src.Size, copyPageSize); err != nil {
			return err
		}
	}
	if err = m.copyAll(); err != nil {
		return err
	}
	if live {
		// Chase the dirty set down before sealing: each pass re-copies the
		// pages written during the previous one.
		for pass, dirty := 0, 1; dirty > 0 && pass < maxDrainPasses; pass++ {
			if dirty, err = m.copyDelta(); err != nil {
				return err
			}
		}
		if err = m.from.Seal(src.RemoteOff, src.Size); err != nil {
			return err
		}
		sealed = true
		// Final delta under the seal: nothing can dirty the extent now, so
		// after this copy the target is an exact image.
		if _, err = m.copyDelta(); err != nil {
			return err
		}
	}
	if err = e.ctrl.CommitReplacement(old, target, !live); err != nil {
		return err
	}
	if live {
		_ = m.from.CaptureStop(old.RemoteOff, old.Size) // best effort, as in the unwind
		// The old extent stays sealed through its hold-down, so a straggler
		// writer still holding the old placement fails loudly instead of
		// writing into a recycled window; release comes in a later sweep.
		e.hold(heldExtent{s: old, sweeps: e.cfg.RetireSweeps, retired: true})
	}
	m.c.flips.Inc()
	if e.trace != nil {
		e.trace.Emit("cluster.replace", m.String())
	}
	return nil
}

// String is the move's /debug/events detail: node/incarnation of the
// member leaving and of its replacement.
func (m *move) String() string {
	return fmt.Sprintf("group=%d from=%d/%d to=%d/%d cause=%s bytes=%d delta_pages=%d",
		m.old.ID, m.old.Node, m.old.Epoch, m.dst.Node, m.dst.Epoch, m.c.name, m.bytes, m.deltaPages)
}

// copyAll streams the whole source extent onto the target.
func (m *move) copyAll() error {
	var batch [copyBatchPages]uint64
	offs := batch[:0]
	for off, end := m.src.RemoteOff, m.src.RemoteOff+m.src.Size; off < end; off += copyPageSize {
		offs = append(offs, off)
		if len(offs) == copyBatchPages {
			if err := m.copyPages(offs); err != nil {
				return err
			}
			offs = offs[:0]
		}
	}
	return m.copyPages(offs)
}

// copyDelta drains the source's dirty capture and re-copies those pages,
// returning how many there were.
func (m *move) copyDelta() (int, error) {
	offs, err := m.from.CaptureDrain(m.src.RemoteOff, m.src.Size)
	if err != nil {
		return 0, err
	}
	if err := m.copyPages(offs); err != nil {
		return 0, err
	}
	m.deltaPages += uint64(len(offs))
	m.e.deltaPages.Add(uint64(len(offs)))
	return len(offs), nil
}

// copyPages copies the pages at offs (absolute source-pool offsets,
// ascending, page-aligned within the extent) to their homes in the
// target, one budgeted batch read at a time through the engine's buffer.
func (m *move) copyPages(offs []uint64) error {
	e, end := m.e, m.src.RemoteOff+m.src.Size
	for len(offs) > 0 {
		// A non-page-aligned extent ends in a short page. A batch read
		// takes equal-length buffers, so the short page travels alone.
		n, pageLen := 1, end-offs[0]
		if pageLen >= copyPageSize {
			pageLen = copyPageSize
			for n < len(offs) && n < copyBatchPages && end-offs[n] >= copyPageSize {
				n++
			}
		}
		batch, bufs := offs[:n], e.bufs[:n]
		offs = offs[n:]
		for i := range bufs {
			bufs[i] = e.buf[uint64(i)*copyPageSize:][:pageLen]
		}
		span := uint64(n) * pageLen
		m.c.budget.take(int(span))
		if err := m.from.ReadPagesInto(batch, bufs); err != nil {
			return fmt.Errorf("copy: read from node %d: %w", m.src.Node, err)
		}
		// Each run of adjacent pages is one write, its buffers a scatter
		// list the wire path writev's straight out.
		for i := 0; i < n; {
			j := i + 1
			for j < n && batch[j] == batch[j-1]+pageLen {
				j++
			}
			if err := m.to.WriteVec(m.dst.RemoteOff+batch[i]-m.src.RemoteOff, bufs[i:j]...); err != nil {
				return fmt.Errorf("copy: write to node %d: %w", m.dst.Node, err)
			}
			i = j
		}
		m.bytes += span
		m.c.bytes.Add(span)
	}
	return nil
}

// hold puts h on the hold-down list, replacing an entry already there for
// the same extent (an unwound migration's owed unseal, when the member
// migrates after all).
func (e *ReplaceEngine) hold(h heldExtent) {
	for i := range e.held {
		if e.held[i].s == h.s {
			e.held[i] = h
			return
		}
	}
	e.held = append(e.held, h)
}

// ageHoldDowns counts down each held extent and, once its hold-down is
// over (straggler writers have had RetireSweeps sweeps to refresh), pays
// what is owed: a retired extent is released through its node's handle,
// an unwound member unsealed. An extent stays held until its node
// acknowledges or its incarnation is gone: listing a window free while
// its node keeps the seal would bounce the next tenant's writes forever.
func (e *ReplaceEngine) ageHoldDowns() {
	kept := e.held[:0]
	for _, h := range e.held {
		h.sweeps--
		switch {
		case h.sweeps > 0:
		case h.retired && e.ctrl.abandonVia(e.dial, h.s) == nil:
			e.retired.Inc()
			continue
		case !h.retired && e.unsealed(h.s):
			continue
		}
		kept = append(kept, h)
	}
	e.held = kept
}

// unsealed lifts the seal on s and reports whether the engine is done
// with it: the unseal was acknowledged, or the controller says that
// incarnation is gone and the seal died with it.
func (e *ReplaceEngine) unsealed(s slab.Slab) bool {
	n, err := e.dial(s.Node, s.Epoch)
	if err == nil {
		err = n.Unseal(s.RemoteOff, s.Size)
	}
	if err == nil {
		return true
	}
	_, there := e.ctrl.hostOf(s)
	return !there
}
