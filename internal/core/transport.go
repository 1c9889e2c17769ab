package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kona/internal/cluster"
	"kona/internal/mem"
	"kona/internal/rdma"
	"kona/internal/simclock"
)

// The runtime's data plane is transport-agnostic: every memory node is
// reached through a nodeLink, and node discovery/slab allocation through a
// rack. Two implementations exist:
//
//   - the simulated RDMA fabric (simRack/rdmaLink): in-process, with the
//     calibrated virtual-time cost model — what the experiments use;
//   - real TCP daemons (tcpRack/tcpLink): cmd/kona-controller and
//     cmd/kona-memnode processes, with wall-clock time folded into the
//     virtual clock — what a networked deployment uses.

// nodeLink is the transport to one memory node incarnation.
type nodeLink interface {
	id() int
	// key uniquely identifies the (node, incarnation) pair this link
	// reaches. The evictor buffers per-key, so a node that crashes and
	// rejoins under a new incarnation gets a fresh batch instead of
	// inheriting the dead incarnation's retained entries.
	key() uint64
	healthy() bool
	// readPage fills buf with one page at pool offset off.
	readPage(now simclock.Duration, off uint64, buf []byte) (simclock.Duration, error)
	// readPages gathers len(offs) equally-sized spans into the matching
	// bufs elements, coalescing into one round trip when the transport
	// supports scatter-gather reads.
	readPages(now simclock.Duration, offs []uint64, bufs [][]byte) (simclock.Duration, error)
	// writePage stores data at pool offset off.
	writePage(now simclock.Duration, off uint64, data []byte) (simclock.Duration, error)
	// shipLog delivers a packed cache-line log — given as scatter
	// segments in ship order, typically one slice of the evictor's pack
	// arena — to the node's receiver; ackDue is when the receiver's
	// acknowledgment lands, entries how many log entries the receiver
	// unpacked. The TCP transport writev's the segments straight from
	// their arena; the simulated fabric stages them into its log MR.
	shipLog(now simclock.Duration, packed [][]byte) (done, ackDue simclock.Duration, entries int, err error)
	// injectDelay adds artificial latency (failure testing); transports
	// that cannot are explicit about it.
	injectDelay(d simclock.Duration) error
}

// rack is the control plane: slab allocation, release, link construction
// and the fault-tolerance surface (failure reports, placement refresh).
type rack interface {
	allocSlab(size uint64) (slab Slab, err error)
	allocReplicated(size uint64, replicas int) ([]Slab, error)
	release(s Slab) error
	// link returns the transport to a node at a specific incarnation
	// (epoch); 0 means "the current incarnation". Linking a node the
	// rack no longer knows (or a stale incarnation) errors; the member
	// table substitutes a deadLink for such a placement.
	link(node int, epoch uint64) (nodeLink, error)
	// reportShipFailure tells the controller a node's log ships keep
	// failing so it can probe and expel the node (DESIGN.md §10).
	reportShipFailure(node int) error
	// reportLoad pushes this runtime's ship-pending backlog toward one
	// node into the controller's load map (DESIGN.md §13). Best-effort:
	// a lost report only delays the next load-map update.
	reportLoad(node int, pending uint64) error
	// slabPlacements returns a placement group's current members.
	slabPlacements(group uint64) ([]Slab, error)
	// Lease verbs drive the controller's per-group ownership directory
	// (DESIGN.md §14): one writer or N readers per placement group, with
	// epoch fencing on handover.
	acquireLease(group, runtime uint64, mode int, ttl time.Duration) (cluster.LeaseGrant, error)
	renewLease(group, runtime uint64, mode int, ttl time.Duration) (cluster.LeaseGrant, error)
	releaseLease(group, runtime uint64) error
	publishLease(group, runtime uint64) (cluster.LeaseGrant, error)
	// setRuntime stamps this runtime's identity onto data-path writes so
	// memnode lease fences can tell holders apart. Must be called before
	// the first link is constructed.
	setRuntime(id uint64)
	// placementEpoch returns the controller's placement epoch; a change
	// means cached placements may be stale.
	placementEpoch() (uint64, error)
	// pipelined reports whether the transport benefits from concurrent
	// per-node operations. The simulated fabric serializes everything
	// through one virtual-time NIC model and must stay single-threaded
	// for reproducibility; real TCP links overlap round trips.
	pipelined() bool
}

// linkKeyFor packs a (node id, incarnation) pair into one evictor/link
// map key.
func linkKeyFor(node int, epoch uint64) uint64 {
	return uint64(uint32(node))<<32 | (epoch & 0xffffffff)
}

// deadLink stands in for a placement whose node the rack cannot link —
// removed from the controller, or a stale incarnation. Every operation
// errors and healthy() is false, but its existence lets the evictor keep
// buffering entries for the lost replica (the retained-entry protocol)
// until a repair flip remaps them onto the replacement node.
type deadLink struct {
	nodeID int
	ep     uint64
}

func (l deadLink) id() int       { return l.nodeID }
func (l deadLink) key() uint64   { return linkKeyFor(l.nodeID, l.ep) }
func (l deadLink) healthy() bool { return false }

func (l deadLink) err() error {
	return fmt.Errorf("core: memory node %d (epoch %d) unavailable", l.nodeID, l.ep)
}

func (l deadLink) readPage(now simclock.Duration, off uint64, buf []byte) (simclock.Duration, error) {
	return now, l.err()
}

func (l deadLink) readPages(now simclock.Duration, offs []uint64, bufs [][]byte) (simclock.Duration, error) {
	return now, l.err()
}

func (l deadLink) writePage(now simclock.Duration, off uint64, data []byte) (simclock.Duration, error) {
	return now, l.err()
}

func (l deadLink) shipLog(now simclock.Duration, packed [][]byte) (simclock.Duration, simclock.Duration, int, error) {
	return now, now, 0, l.err()
}

func (l deadLink) injectDelay(simclock.Duration) error { return l.err() }

// --- simulated RDMA transport -----------------------------------------

// simRack adapts the in-process controller. mu guards the link map and
// the runtime identity stamped into new links.
type simRack struct {
	ctrl    *cluster.Controller
	localEP *rdma.Endpoint
	mu      sync.Mutex
	runtime uint64               // writer identity stamped on log ships
	links   map[uint64]*rdmaLink // keyed by linkKeyFor(node, incarnation)
}

func newSimRack(ctrl *cluster.Controller) *simRack {
	return &simRack{
		ctrl:    ctrl,
		localEP: rdma.NewEndpoint("klib"),
		links:   make(map[uint64]*rdmaLink),
	}
}

func (r *simRack) allocSlab(size uint64) (Slab, error) { return r.ctrl.AllocSlab(size) }

func (r *simRack) allocReplicated(size uint64, replicas int) ([]Slab, error) {
	return r.ctrl.AllocReplicatedSlab(size, replicas)
}

func (r *simRack) release(s Slab) error { return r.ctrl.ReleaseSlab(s) }

func (r *simRack) pipelined() bool { return false }

func (r *simRack) reportShipFailure(node int) error {
	r.ctrl.ReportNodeFailure(node)
	return nil
}

func (r *simRack) reportLoad(node int, pending uint64) error {
	r.ctrl.ReportLoad(node, cluster.LoadSample{PendingBytes: pending})
	return nil
}

func (r *simRack) slabPlacements(group uint64) ([]Slab, error) {
	members, ok := r.ctrl.Placements(group)
	if !ok {
		return nil, fmt.Errorf("core: unknown placement group %d", group)
	}
	return members, nil
}

func (r *simRack) placementEpoch() (uint64, error) {
	return r.ctrl.PlacementEpoch(), nil
}

func (r *simRack) acquireLease(group, runtime uint64, mode int, ttl time.Duration) (cluster.LeaseGrant, error) {
	return r.ctrl.AcquireLease(group, runtime, mode, ttl)
}

func (r *simRack) renewLease(group, runtime uint64, mode int, ttl time.Duration) (cluster.LeaseGrant, error) {
	return r.ctrl.RenewLease(group, runtime, mode, ttl)
}

func (r *simRack) releaseLease(group, runtime uint64) error {
	return r.ctrl.ReleaseLease(group, runtime)
}

func (r *simRack) publishLease(group, runtime uint64) (cluster.LeaseGrant, error) {
	return r.ctrl.PublishLease(group, runtime)
}

func (r *simRack) setRuntime(id uint64) {
	r.mu.Lock()
	r.runtime = id
	r.mu.Unlock()
}

func (r *simRack) link(node int, epoch uint64) (nodeLink, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Registration is checked before the cache: an expelled or rejoined
	// node's old incarnation must stop linking even though its link object
	// exists, or a refresh could not tell a repair flip (old member gone)
	// from a migration flip (old member alive).
	n, registered := r.ctrl.Node(node)
	if !registered {
		return nil, fmt.Errorf("core: memory node %d not registered", node)
	}
	if inc := n.Incarnation(); epoch == 0 {
		epoch = inc // resolve "current incarnation"
	} else if inc != 0 && inc != epoch {
		return nil, fmt.Errorf("core: memory node %d is incarnation %d, want %d", node, inc, epoch)
	}
	k := linkKeyFor(node, epoch)
	if l, ok := r.links[k]; ok {
		return l, nil
	}
	l := &rdmaLink{
		lkey:    k,
		node:    n,
		writer:  r.runtime,
		qp:      rdma.Connect(r.localEP, n.Endpoint(), rdma.DefaultCostModel()),
		staging: r.localEP.RegisterMR(mem.PageSize),
		logBuf:  r.localEP.RegisterMR(cluster.LogRegionSize),
	}
	r.links[k] = l
	return l, nil
}

// rdmaLink reaches a simulated memory node with one-sided verbs. Its
// mutex is the serial-NIC funnel for the concurrent runtime: the link
// owns one staging MR, one log MR and one QP, so every verb — from any
// FMem shard — passes through the lock one at a time. That matches the
// hardware (one QP has one send queue) and keeps the virtual-time NIC
// model's serialization assumption intact under concurrent callers.
type rdmaLink struct {
	node   *cluster.MemoryNode
	lkey   uint64
	writer uint64 // runtime identity checked by the node's lease fences

	mu      sync.Mutex
	qp      *rdma.QP
	staging *rdma.MR
	logBuf  *rdma.MR
}

func (l *rdmaLink) id() int       { return l.node.ID() }
func (l *rdmaLink) key() uint64   { return l.lkey }
func (l *rdmaLink) healthy() bool { return !l.node.Failed() }

func (l *rdmaLink) readPage(now simclock.Duration, off uint64, buf []byte) (simclock.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readPageLocked(now, off, buf)
}

func (l *rdmaLink) readPageLocked(now simclock.Duration, off uint64, buf []byte) (simclock.Duration, error) {
	done, err := l.qp.PostSend(now, []rdma.WR{{
		Op: rdma.OpRead, Local: l.staging, RemoteKey: l.node.PoolKey(),
		RemoteOff: int(off), Len: len(buf), Signaled: true,
	}})
	if err != nil {
		return now, err
	}
	l.qp.PollCQ()
	copy(buf, l.staging.Bytes())
	return done, nil
}

// readPages on the simulated fabric issues the reads back to back: the
// virtual-time NIC model serializes verbs anyway, so a batched form
// would not change the timeline — it exists for interface parity.
func (l *rdmaLink) readPages(now simclock.Duration, offs []uint64, bufs [][]byte) (simclock.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	for i, off := range offs {
		if now, err = l.readPageLocked(now, off, bufs[i]); err != nil {
			return now, err
		}
	}
	return now, nil
}

func (l *rdmaLink) writePage(now simclock.Duration, off uint64, data []byte) (simclock.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	copy(l.staging.Bytes(), data)
	done, err := l.qp.PostSend(now, []rdma.WR{{
		Op: rdma.OpWrite, Local: l.staging, RemoteKey: l.node.PoolKey(),
		RemoteOff: int(off), Len: len(data), Signaled: true,
	}})
	if err != nil {
		return now, err
	}
	l.qp.PollCQ()
	return done, nil
}

func (l *rdmaLink) shipLog(now simclock.Duration, packed [][]byte) (simclock.Duration, simclock.Duration, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Stage the segments contiguously into the log MR — the simulated
	// one-sided write needs the bytes in registered memory, and the
	// virtual-time cost depends only on the total length, so the timeline
	// is byte-identical to the old single-slice form.
	dst := l.logBuf.Bytes()
	total := 0
	for _, seg := range packed {
		total += copy(dst[total:], seg)
	}
	done, err := l.qp.PostSend(now, []rdma.WR{{
		Op: rdma.OpWrite, Local: l.logBuf, RemoteKey: l.node.LogKey(),
		RemoteOff: 0, Len: total, Signaled: true,
	}})
	if err != nil {
		return now, now, 0, err
	}
	l.qp.PollCQ()
	entries, service, err := l.node.UnpackLogFrom(l.writer, total)
	if err != nil {
		return done, done, 0, err
	}
	return done, done + service + 500, entries, nil // +ack flight
}

func (l *rdmaLink) injectDelay(d simclock.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.qp.InjectDelay(d)
	return nil
}

// --- TCP transport ------------------------------------------------------

// tcpRack adapts a remote controller daemon; wall-clock latencies are
// folded into the virtual clock. The cluster.Transport policy (deadlines,
// retry budget, pool size) it is built with applies to the controller
// client and to every node link it constructs.
type tcpRack struct {
	mu      sync.Mutex
	tr      cluster.Transport
	client  *cluster.ControllerClient
	runtime uint64 // writer identity stamped on node-link writes
	addrs   map[int]string
	// epochs is the last incarnation learned for each node (from slab
	// epochs and placement refreshes); link(node, 0) resolves through it.
	epochs map[int]uint64
	links  map[uint64]*tcpLink // keyed by linkKeyFor(node, incarnation)
}

func newTCPRack(controllerAddr string) *tcpRack {
	return newTCPRackWith(controllerAddr, cluster.DefaultTransport())
}

func newTCPRackWith(controllerAddr string, tr cluster.Transport) *tcpRack {
	return &tcpRack{
		tr:     tr,
		client: cluster.DialControllerTransport(controllerAddr, tr),
		addrs:  make(map[int]string),
		epochs: make(map[int]uint64),
		links:  make(map[uint64]*tcpLink),
	}
}

// noteEpochLocked records a node's incarnation learned from a slab.
func (r *tcpRack) noteEpochLocked(s Slab) {
	if s.Epoch != 0 {
		r.epochs[s.Node] = s.Epoch
	}
}

func (r *tcpRack) allocSlab(size uint64) (Slab, error) {
	s, addr, err := r.client.AllocSlab(size)
	if err != nil {
		return Slab{}, err
	}
	r.mu.Lock()
	r.addrs[s.Node] = addr
	r.noteEpochLocked(s)
	r.mu.Unlock()
	return s, nil
}

func (r *tcpRack) allocReplicated(size uint64, replicas int) ([]Slab, error) {
	slabs, addrs, err := r.client.AllocReplicatedSlab(size, replicas)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	for id, a := range addrs {
		r.addrs[id] = a
	}
	for _, s := range slabs {
		r.noteEpochLocked(s)
	}
	r.mu.Unlock()
	return slabs, nil
}

func (r *tcpRack) release(s Slab) error { return r.client.ReleaseSlab(s) }

func (r *tcpRack) pipelined() bool { return true }

func (r *tcpRack) reportShipFailure(node int) error {
	_, err := r.client.ReportFailure(node)
	return err
}

func (r *tcpRack) reportLoad(node int, pending uint64) error {
	return r.client.ReportLoad(node, cluster.LoadSample{PendingBytes: pending})
}

func (r *tcpRack) slabPlacements(group uint64) ([]Slab, error) {
	members, addrs, err := r.client.SlabPlacements(group)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	for id, a := range addrs {
		r.addrs[id] = a
	}
	for _, s := range members {
		r.noteEpochLocked(s)
	}
	r.mu.Unlock()
	return members, nil
}

func (r *tcpRack) placementEpoch() (uint64, error) { return r.client.Epoch() }

func (r *tcpRack) acquireLease(group, runtime uint64, mode int, ttl time.Duration) (cluster.LeaseGrant, error) {
	return r.client.AcquireLease(group, runtime, mode, ttl)
}

func (r *tcpRack) renewLease(group, runtime uint64, mode int, ttl time.Duration) (cluster.LeaseGrant, error) {
	return r.client.RenewLease(group, runtime, mode, ttl)
}

func (r *tcpRack) releaseLease(group, runtime uint64) error {
	return r.client.ReleaseLease(group, runtime)
}

func (r *tcpRack) publishLease(group, runtime uint64) (cluster.LeaseGrant, error) {
	return r.client.PublishLease(group, runtime)
}

func (r *tcpRack) setRuntime(id uint64) {
	r.mu.Lock()
	r.runtime = id
	r.mu.Unlock()
}

func (r *tcpRack) link(node int, epoch uint64) (nodeLink, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch == 0 {
		epoch = r.epochs[node]
	}
	k := linkKeyFor(node, epoch)
	if l, ok := r.links[k]; ok {
		return l, nil
	}
	addr, ok := r.addrs[node]
	if !ok {
		return nil, fmt.Errorf("core: no address known for memory node %d", node)
	}
	// Links are made when a membership is installed (a control-path
	// step), never from the fetch or ship path, so constructing the
	// client under the rack lock stalls no data.
	l := &tcpLink{nodeID: node, epoch: epoch, client: cluster.DialMemoryNodeTransport(addr, r.tr)}
	l.client.SetEpoch(epoch)
	l.client.SetRuntime(r.runtime)
	r.links[k] = l
	return l, nil
}

// healthTTL is how long a tcpLink trusts its last Ping verdict. Health is
// consulted on every fetch translation and for every destination of a
// replicated flush, so an uncached check would cost one RTT per page
// operation.
const healthTTL = 250 * time.Millisecond

// tcpLink reaches a real memory-node daemon.
type tcpLink struct {
	nodeID int
	epoch  uint64
	client *cluster.MemoryNodeClient

	// health is the cached Ping verdict and its timestamp packed into one
	// atomic word: UnixNano()<<1 | okBit, with 0 meaning never checked /
	// invalidated. Verdict and timestamp travel together, so a reader can
	// never pair a fresh timestamp with a stale verdict (or vice versa) —
	// the torn read a two-field cache would allow now that every FMem
	// shard consults health on its own goroutine.
	health atomic.Int64
}

func (l *tcpLink) id() int     { return l.nodeID }
func (l *tcpLink) key() uint64 { return linkKeyFor(l.nodeID, l.epoch) }

// healthy pings the node, trusting a cached verdict for healthTTL. Any
// data-path error invalidates the cache (noteFailure) so failover does
// not wait out the TTL on a node that just stopped answering.
func (l *tcpLink) healthy() bool {
	if h := l.health.Load(); h != 0 {
		if time.Since(time.Unix(0, h>>1)) < healthTTL {
			return h&1 == 1
		}
	}
	ok := l.client.Ping() == nil
	w := time.Now().UnixNano() << 1
	if ok {
		w |= 1
	}
	// Concurrent probes race benignly: last Store wins and every candidate
	// value is a valid fresh verdict.
	l.health.Store(w)
	return ok
}

// noteFailure drops the cached health verdict after a data-path error so
// the next healthy() probes the node immediately.
func (l *tcpLink) noteFailure() {
	l.health.Store(0)
}

// elapse folds a measured wall-clock duration into virtual time.
func elapse(now simclock.Duration, start time.Time) simclock.Duration {
	return now + simclock.Duration(time.Since(start))
}

func (l *tcpLink) readPage(now simclock.Duration, off uint64, buf []byte) (simclock.Duration, error) {
	start := time.Now()
	// ReadInto lands the reply payload directly in the caller's page
	// frame — no staging allocation, no copy.
	if err := l.client.ReadInto(off, buf); err != nil {
		l.noteFailure()
		return now, err
	}
	return elapse(now, start), nil
}

// readPages gathers every span with one scatter-gather RPC instead of
// len(offs) Read round trips; the concatenated reply is scattered off
// the socket directly into the (non-contiguous) caller frames.
func (l *tcpLink) readPages(now simclock.Duration, offs []uint64, bufs [][]byte) (simclock.Duration, error) {
	if len(offs) == 0 {
		return now, nil
	}
	start := time.Now()
	if err := l.client.ReadPagesInto(offs, bufs); err != nil {
		l.noteFailure()
		return now, err
	}
	return elapse(now, start), nil
}

func (l *tcpLink) writePage(now simclock.Duration, off uint64, data []byte) (simclock.Duration, error) {
	start := time.Now()
	if err := l.client.WriteVec(off, data); err != nil {
		l.noteFailure()
		return now, err
	}
	return elapse(now, start), nil
}

func (l *tcpLink) shipLog(now simclock.Duration, packed [][]byte) (simclock.Duration, simclock.Duration, int, error) {
	start := time.Now()
	// Each segment is one writev iovec straight out of the pack arena;
	// the daemon lands the payload directly in its log region.
	entries, err := l.client.WriteLogVec(packed...)
	if err != nil {
		l.noteFailure()
		return now, now, 0, err
	}
	done := elapse(now, start)
	return done, done, entries, nil // the RPC reply is the acknowledgment
}

func (l *tcpLink) injectDelay(simclock.Duration) error {
	return fmt.Errorf("core: delay injection requires the simulated transport")
}
