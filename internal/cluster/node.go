// Package cluster implements the rack-level pieces of Kona's architecture
// (§4.1): memory nodes that register disaggregated memory and run the
// Cache-line Log Receiver, and the centralized rack controller that
// allocates that memory to compute nodes in coarse slabs.
//
// Two transports exist: the in-process simulated RDMA fabric (package
// rdma) used by the runtime and experiments, and a real TCP wire protocol
// (protocol.go/server.go) used by the cmd/kona-controller and
// cmd/kona-memnode daemons.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"kona/internal/cllog"
	"kona/internal/rdma"
	"kona/internal/simclock"
)

// MemoryNode hosts a pool of disaggregated memory, exposed as one large
// registered region carved into slabs, plus a log-receive region.
type MemoryNode struct {
	mu sync.Mutex

	id       int
	endpoint *rdma.Endpoint
	pool     *rdma.MR

	// logMR receives packed cache-line logs from compute nodes.
	logMR *rdma.MR

	// failed simulates a crashed node: all operations error.
	failed bool

	// incarnation is the controller-assigned epoch of this node instance.
	// It increments every time a node with the same id crashes and
	// rejoins, so stale placements (and RPCs stamped with the old epoch)
	// can be fenced. Zero means "not assigned" — nodes used outside a
	// controller skip fencing entirely.
	incarnation uint64

	// seals are extents fenced against writes while a migration retires
	// them: a write (or a whole log batch touching one) is rejected with
	// a sealed error before any byte is applied, so the final migration
	// delta copy sees a quiescent source. Reads stay allowed.
	seals []sealRange

	// captures track page offsets dirtied inside an extent while a
	// migration copies it — the delta the engine re-copies before the
	// flip.
	captures []*captureState

	// fences are extents owned by a writer lease (DESIGN.md §14): writes
	// carrying a different runtime identity — a reader, or a fenced-out
	// stale writer after a lease takeover — are rejected before any byte
	// lands, whole log batches all-or-nothing. Reads stay allowed.
	fences []leaseFence

	linesUnpacked uint64
	logsUnpacked  uint64

	// Load counters (cumulative since node start): the per-node signal
	// the controller's load map aggregates.
	readOps, writeOps     uint64
	readBytes, writeBytes uint64
	logPayloadBytes       uint64
}

// sealRange is one write-fenced extent.
type sealRange struct{ off, size uint64 }

// leaseFence is one extent whose writes are restricted to a lease holder.
type leaseFence struct{ off, size, holder uint64 }

// captureState records dirtied pages inside one extent under migration.
type captureState struct {
	off, size uint64
	pageLen   uint64
	dirty     map[uint64]struct{} // page-aligned absolute pool offsets
}

// note records that [off, off+n) was written, page-granular.
func (c *captureState) note(off uint64, n int) {
	end := off + uint64(n)
	if end <= c.off || off >= c.off+c.size {
		return
	}
	if off < c.off {
		off = c.off
	}
	if end > c.off+c.size {
		end = c.off + c.size
	}
	first := c.off + (off-c.off)/c.pageLen*c.pageLen
	for p := first; p < end; p += c.pageLen {
		c.dirty[p] = struct{}{}
	}
}

// LogRegionSize is the receive buffer for cache-line logs.
const LogRegionSize = 4 << 20

// NewMemoryNode registers capacity bytes of offerable memory. capacity is
// at most cllog.MaxRegion, 64 B short of 256 GiB: write-logs address the
// pool by a u32 cache-line index.
func NewMemoryNode(id int, capacity uint64) *MemoryNode {
	ep := rdma.NewEndpoint(fmt.Sprintf("memnode-%d", id))
	return &MemoryNode{
		id:       id,
		endpoint: ep,
		pool:     ep.RegisterMR(int(capacity)),
		logMR:    ep.RegisterMR(LogRegionSize),
	}
}

// ID returns the node identifier.
func (n *MemoryNode) ID() int { return n.id }

// Endpoint exposes the node's RDMA endpoint for queue-pair setup.
func (n *MemoryNode) Endpoint() *rdma.Endpoint { return n.endpoint }

// PoolKey returns the rkey of the node's memory pool.
func (n *MemoryNode) PoolKey() uint32 { return n.pool.Key() }

// LogKey returns the rkey of the node's log-receive region.
func (n *MemoryNode) LogKey() uint32 { return n.logMR.Key() }

// ReleaseExtent is the node side of a slab's release: every seal, lease
// fence and capture overlapping [offset, offset+size) dies with the extent,
// which the controller may re-carve for an unrelated slab once this
// returns — the new tenant must not inherit a stale guard.
func (n *MemoryNode) ReleaseExtent(offset, size uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seals = slices.DeleteFunc(n.seals, func(s sealRange) bool { return overlaps(s.off, s.size, offset, size) })
	n.captures = slices.DeleteFunc(n.captures, func(c *captureState) bool { return overlaps(c.off, c.size, offset, size) })
	n.fences = slices.DeleteFunc(n.fences, func(f leaseFence) bool { return overlaps(f.off, f.size, offset, size) })
}

func overlaps(aOff, aSize, bOff, bSize uint64) bool {
	return aOff < bOff+bSize && bOff < aOff+aSize
}

// admitLocked is the node's one write admission check, for a direct
// write and for every entry of a log batch alike: a write of size bytes
// at off by the given runtime is refused if it touches a sealed extent
// (ErrSealed), then if it touches an extent lease-fenced to another
// holder (ErrLeaseFenced). writer 0 ("no runtime identity" — legacy
// callers, repair/migration copies before a refence) is only fenced out
// when a real holder exists, which is exactly the stale-writer case the
// fence exists for.
func (n *MemoryNode) admitLocked(off uint64, size int, writer uint64) error {
	for _, s := range n.seals {
		if overlaps(s.off, s.size, off, uint64(size)) {
			return fmt.Errorf("memnode %d: write [%d,+%d) by runtime %d: %w", n.id, off, size, writer, ErrSealed)
		}
	}
	for _, f := range n.fences {
		if f.holder != writer && overlaps(f.off, f.size, off, uint64(size)) {
			return fmt.Errorf("memnode %d: write [%d,+%d) by runtime %d: %w", n.id, off, size, writer, ErrLeaseFenced)
		}
	}
	return nil
}

// LeaseFence restricts writes to [off, off+size) to the runtime holding
// the writer lease. holder 0 clears the fence (writer released); a
// fence on the same extent is replaced (lease takeover re-arms with the
// new holder).
func (n *MemoryNode) LeaseFence(off, size, holder uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fences = slices.DeleteFunc(n.fences, func(f leaseFence) bool { return f.off == off && f.size == size })
	if holder != 0 {
		n.fences = append(n.fences, leaseFence{off: off, size: size, holder: holder})
	}
}

// Seal fences [off, off+size) against writes: subsequent WriteAt calls
// (and whole UnpackLogFrom batches) touching the extent are rejected with a
// sealed error. Sealing an already-sealed extent is a no-op.
func (n *MemoryNode) Seal(off, size uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.seals {
		if s.off == off && s.size == size {
			return
		}
	}
	n.seals = append(n.seals, sealRange{off: off, size: size})
}

// Unseal lifts the fence on [off, off+size). Unknown extents are a
// no-op.
func (n *MemoryNode) Unseal(off, size uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seals = slices.DeleteFunc(n.seals, func(s sealRange) bool { return s.off == off && s.size == size })
}

// StartCapture begins recording page-granular writes landing inside
// [off, off+size). Restarting an existing capture resets its dirty set.
func (n *MemoryNode) StartCapture(off, size, pageLen uint64) {
	if pageLen == 0 {
		pageLen = 4096
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.captures {
		if c.off == off && c.size == size {
			c.pageLen = pageLen
			c.dirty = make(map[uint64]struct{})
			return
		}
	}
	n.captures = append(n.captures, &captureState{
		off: off, size: size, pageLen: pageLen, dirty: make(map[uint64]struct{}),
	})
}

// DrainCapture returns (and clears) the sorted page offsets dirtied in
// the captured extent since StartCapture or the previous drain. A nil
// return means no capture exists or nothing was dirtied.
func (n *MemoryNode) DrainCapture(off, size uint64) []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.captures {
		if c.off != off || c.size != size {
			continue
		}
		if len(c.dirty) == 0 {
			return nil
		}
		out := make([]uint64, 0, len(c.dirty))
		for p := range c.dirty {
			out = append(out, p)
		}
		c.dirty = make(map[uint64]struct{})
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	return nil
}

// StopCapture discards the capture on [off, off+size).
func (n *MemoryNode) StopCapture(off, size uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.captures = slices.DeleteFunc(n.captures, func(c *captureState) bool { return c.off == off && c.size == size })
}

// Fail marks the node crashed; subsequent operations error. Used by the
// failure-injection tests (§4.5).
func (n *MemoryNode) Fail() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed = true
}

// Failed reports the failure flag.
func (n *MemoryNode) Failed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failed
}

// Recover clears the failure flag — the operator restored the node or the
// network outage ended (§4.5's "wait until the network delay or outage is
// resolved"). The pool contents are as they were.
func (n *MemoryNode) Recover() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed = false
}

// Incarnation returns the node's controller-assigned epoch (0 if the
// node was never registered through an incarnation-tracking controller).
func (n *MemoryNode) Incarnation() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.incarnation
}

// SetIncarnation records the controller-assigned epoch for this node
// instance; the memnode daemon calls it after (re-)registering.
func (n *MemoryNode) SetIncarnation(epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.incarnation = epoch
}

// checkIncarnation is the node's one epoch fence (DESIGN.md §10), shared
// by the daemon and the in-process NodeAccess: a request stamped with an
// incarnation this node instance does not hold comes from a peer whose
// placements predate a crash-rejoin, and is refused with
// ErrStaleIncarnation. Stamp 0, or a node never given an incarnation,
// skips the fence.
func (n *MemoryNode) checkIncarnation(epoch uint64) error {
	if epoch == 0 {
		return nil
	}
	if inc := n.Incarnation(); inc != 0 && inc != epoch {
		return fmt.Errorf("memnode %d: %w: request for incarnation %d, node is %d", n.id, ErrStaleIncarnation, epoch, inc)
	}
	return nil
}

// ReadAt copies len(buf) pool bytes starting at off into buf. Unlike
// PoolBytes it synchronizes with the log receiver, so the replacement engine
// (and the memnode server's data RPCs) can read concurrently with
// UnpackLogFrom scattering lines into the pool.
func (n *MemoryNode) ReadAt(off uint64, buf []byte) error {
	return n.ReadSpans([]uint64{off}, len(buf), buf)
}

// ReadSpans is one read-pages gather: it copies len(offs) spans of length
// bytes, the i-th from pool offset offs[i], into consecutive length-byte
// slots of dst. It takes the lock once and bounds-checks every span before
// copying any, so a gather with an overrunning span fails whole; a gather
// counts as one read op, its bytes as their total.
func (n *MemoryNode) ReadSpans(offs []uint64, length int, dst []byte) error {
	if len(dst) != len(offs)*length {
		return fmt.Errorf("memnode %d: gather of %d x %d bytes into %d", n.id, len(offs), length, len(dst))
	}
	return n.gather(offs, func(i int) []byte { return dst[i*length : (i+1)*length] })
}

// ReadPagesInto is ReadSpans into separate buffers: the i-th span fills
// bufs[i] from pool offset offs[i]. The in-process replacement copy gathers
// with it.
func (n *MemoryNode) ReadPagesInto(offs []uint64, bufs [][]byte) error {
	if len(bufs) != len(offs) {
		return fmt.Errorf("memnode %d: read-pages: %d offsets but %d buffers", n.id, len(offs), len(bufs))
	}
	return n.gather(offs, func(i int) []byte { return bufs[i] })
}

// gather copies pool bytes from each offs[i] into span(i), all or nothing,
// under one hold of the lock, and counts one read op.
func (n *MemoryNode) gather(offs []uint64, span func(i int) []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed {
		return fmt.Errorf("memnode %d: failed", n.id)
	}
	pool := n.pool.Bytes()
	total := 0
	for i, off := range offs {
		l := len(span(i))
		if overruns(off, l, pool) {
			return fmt.Errorf("memnode %d: read [%d,+%d) overruns pool", n.id, off, l)
		}
		total += l
	}
	for i, off := range offs {
		copy(span(i), pool[off:])
	}
	n.readOps++
	n.readBytes += uint64(total)
	return nil
}

// overruns reports whether [off, off+n) reaches past the pool; an offset
// near 2^64 must not wrap into range.
func overruns(off uint64, n int, pool []byte) bool {
	return off > uint64(len(pool)) || uint64(n) > uint64(len(pool))-off
}

// WriteAt stores data into the pool at off, synchronized like ReadAt.
// Writes into a sealed extent are rejected before touching the pool.
func (n *MemoryNode) WriteAt(off uint64, data []byte) error {
	return n.WriteAtFrom(0, off, data)
}

// WriteAtFrom is WriteAt carrying the calling runtime's identity: writes
// into a lease-fenced extent by anyone but the fence holder are rejected
// before touching the pool.
func (n *MemoryNode) WriteAtFrom(writer, off uint64, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed {
		return fmt.Errorf("memnode %d: failed", n.id)
	}
	pool := n.pool.Bytes()
	if overruns(off, len(data), pool) {
		return fmt.Errorf("memnode %d: write [%d,+%d) overruns pool", n.id, off, len(data))
	}
	if err := n.admitLocked(off, len(data), writer); err != nil {
		return err
	}
	copy(pool[off:], data)
	for _, c := range n.captures {
		c.note(off, len(data))
	}
	n.writeOps++
	n.writeBytes += uint64(len(data))
	return nil
}

// UnpackLogFrom runs the Cache-line Log Receiver once (§4.4) for the
// runtime writer: it parses the packed log that a compute node RDMA-wrote
// into the log region and scatters each entry to its home offset in the
// pool. It returns the number of entries applied and the modeled service
// time (a few memory reads and writes per line — "the overhead of the
// remote thread is small"). The pre-scan rejects the whole batch when any
// entry lands in a sealed extent or one lease-fenced to a different holder
// — a zombie writer's flush after a lease takeover applies no byte at all.
func (n *MemoryNode) UnpackLogFrom(writer uint64, logBytes int) (entries int, service simclock.Duration, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed {
		return 0, 0, fmt.Errorf("memnode %d: failed", n.id)
	}
	if logBytes > len(n.logMR.Bytes()) {
		return 0, 0, fmt.Errorf("memnode %d: log of %d bytes exceeds region", n.id, logBytes)
	}
	pool := n.pool.Bytes()
	// Pre-scan against sealed and lease-fenced extents BEFORE applying
	// anything: a log batch is all-or-nothing, and a partially applied
	// batch racing a migration flip (or a lease takeover) would tear the
	// slab image. The sender retains the whole batch on a seal; a fenced
	// batch must be dropped, not replayed.
	if len(n.seals) > 0 || len(n.fences) > 0 {
		if _, serr := cllog.Unpack(n.logMR.Bytes()[:logBytes], func(e cllog.Entry) error {
			return n.admitLocked(e.RemoteOff, len(e.Data), writer)
		}); serr != nil {
			return 0, 0, serr
		}
	}
	var payload int
	entries, err = cllog.Unpack(n.logMR.Bytes()[:logBytes], func(e cllog.Entry) error {
		if e.RemoteOff+uint64(len(e.Data)) > uint64(len(pool)) {
			return fmt.Errorf("memnode %d: entry at %d overruns pool", n.id, e.RemoteOff)
		}
		copy(pool[e.RemoteOff:], e.Data)
		for _, c := range n.captures {
			c.note(e.RemoteOff, len(e.Data))
		}
		payload += len(e.Data)
		return nil
	})
	if err != nil {
		return entries, 0, err
	}
	// Cost model: read the log sequentially and write each line home.
	service = simclock.Memcpy(payload) + simclock.Duration(entries)*20
	n.linesUnpacked += uint64(entries)
	n.logsUnpacked++
	n.writeOps++
	n.writeBytes += uint64(payload)
	n.logPayloadBytes += uint64(payload)
	return entries, service, nil
}

// LoadSample is one node's cumulative traffic counters plus a pending
// gauge — the per-node signal the controller's load map scores. All
// counter fields are monotone since node start; PendingBytes is a gauge
// (compute-side buffered eviction bytes destined for this node).
type LoadSample struct {
	ReadOps, WriteOps     uint64
	ReadBytes, WriteBytes uint64
	LogBytes, LogEntries  uint64
	PendingBytes          uint64
}

// LoadCounters snapshots the node's cumulative traffic counters.
func (n *MemoryNode) LoadCounters() LoadSample {
	n.mu.Lock()
	defer n.mu.Unlock()
	return LoadSample{
		ReadOps:    n.readOps,
		WriteOps:   n.writeOps,
		ReadBytes:  n.readBytes,
		WriteBytes: n.writeBytes,
		LogBytes:   n.logPayloadBytes,
		LogEntries: n.linesUnpacked,
	}
}

// ReceiverStats returns logs and entries processed by the log receiver.
func (n *MemoryNode) ReceiverStats() (logs, entries uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.logsUnpacked, n.linesUnpacked
}

// PoolBytes exposes the raw pool for verification in tests.
func (n *MemoryNode) PoolBytes() []byte { return n.pool.Bytes() }
