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

// The runtime meets the rack on two planes, as KLib does (§4.1). Data
// moves to a memory node through a nodeLink, built by a links factory that
// stamps the runtime's identity on every write. Slabs, placements, failure
// and load reports and leases are asked of the controller itself, through
// control. Two transports exist:
//
//   - the simulated RDMA fabric (simLinks/rdmaLink, with the in-process
//     controller as localControl): the calibrated virtual-time cost model
//     the experiments use;
//   - real TCP daemons (tcpLinks/tcpLink, with *cluster.ControllerClient):
//     cmd/kona-controller and cmd/kona-memnode processes, with wall-clock
//     time folded into the virtual clock — what a networked deployment
//     uses.

// nodeLink is the transport to one memory node incarnation.
type nodeLink interface {
	id() int
	// key uniquely identifies the (node, incarnation) pair this link
	// reaches. The evictor buffers per-key, so a node that crashes and
	// rejoins under a new incarnation gets a fresh batch instead of
	// inheriting the dead incarnation's retained entries.
	key() uint64
	healthy() bool
	// readPage fills buf with the bytes at pool offset off.
	readPage(now simclock.Duration, off uint64, buf []byte) (simclock.Duration, error)
	// readPages fills each bufs[i], all of one length, with the bytes at
	// pool offset offs[i], in one round trip.
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

// links is the data plane: a factory of node links, each stamping on its
// writes the runtime identity the factory was built with, so memnode lease
// fences can tell holders apart.
type links interface {
	// link returns the transport to a node at a specific incarnation
	// (epoch). Linking a node the rack no longer knows (or a stale
	// incarnation) errors; the member table substitutes a deadLink for
	// such a placement. Epoch 0 asks for no particular incarnation.
	link(node int, epoch uint64) (nodeLink, error)
	// pipelined reports whether the transport benefits from concurrent
	// per-node operations. The simulated fabric serializes everything
	// through one virtual-time NIC model and must stay single-threaded
	// for reproducibility; real TCP links overlap round trips.
	pipelined() bool
}

// control is the control plane, in the wire client's shapes: slab
// allocation and placement refresh, the failure report that lets the
// controller probe and expel a node whose ships keep failing (DESIGN.md
// §10), the best-effort load report of this runtime's ship-pending
// backlog (§13), the placement epoch (a change means cached placements
// may be stale) and the per-group lease directory (§14).
type control interface {
	AllocSlab(size uint64, replicas int) ([]Slab, error)
	ReleaseSlab(s Slab) error
	SlabPlacements(group uint64) ([]Slab, error)
	Epoch() (uint64, error)
	ReportFailure(node int) (bool, error)
	ReportLoad(node int, s cluster.LoadSample) error
	AcquireLease(group, runtime uint64, mode int, ttl time.Duration) (cluster.LeaseGrant, error)
	RenewLease(group, runtime uint64, mode int, ttl time.Duration) (cluster.LeaseGrant, error)
	ReleaseLease(group, runtime uint64) error
	PublishLease(group, runtime uint64) (cluster.LeaseGrant, error)
}

var (
	_ control = (*cluster.ControllerClient)(nil)
	_ control = localControl{}
)

// localControl is the in-process controller as a control: the three verbs
// that cannot fail in process gain the wire client's error results.
type localControl struct{ *cluster.Controller }

func (c localControl) Epoch() (uint64, error) { return c.PlacementEpoch(), nil }

func (c localControl) ReportFailure(node int) (bool, error) { return c.ReportNodeFailure(node), nil }

func (c localControl) ReportLoad(node int, s cluster.LoadSample) error {
	c.Controller.ReportLoad(node, s)
	return nil
}

// linkKeyFor packs a (node id, incarnation) pair into one evictor/link
// map key.
func linkKeyFor(node int, epoch uint64) uint64 {
	return uint64(uint32(node))<<32 | (epoch & 0xffffffff)
}

// deadLink stands in for a placement whose node cannot be linked —
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

func (l deadLink) readPages(now simclock.Duration, _ []uint64, _ [][]byte) (simclock.Duration, error) {
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

// simLinks links the in-process controller's nodes over the simulated
// fabric. mu guards the link map.
type simLinks struct {
	ctrl    *cluster.Controller
	localEP *rdma.Endpoint
	runtime uint64 // writer identity stamped on log ships
	mu      sync.Mutex
	links   map[uint64]*rdmaLink // keyed by linkKeyFor(node, incarnation)
}

func newSimLinks(ctrl *cluster.Controller, runtime uint64) *simLinks {
	return &simLinks{
		ctrl:    ctrl,
		localEP: rdma.NewEndpoint("klib"),
		runtime: runtime,
		links:   make(map[uint64]*rdmaLink),
	}
}

func (r *simLinks) pipelined() bool { return false }

// link resolves epoch 0 to the node's current incarnation.
func (r *simLinks) link(node int, epoch uint64) (nodeLink, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Registration is checked before the cache: an expelled or rejoined
	// node's old incarnation must stop linking even though its link object
	// exists, or a refresh could not tell a repair flip (old member gone)
	// from a migration flip (old member alive).
	n, registered := r.ctrl.Node(node)
	if !registered || n.MemoryNode == nil {
		return nil, fmt.Errorf("core: memory node %d not registered in process", node)
	}
	if inc := n.Incarnation(); epoch == 0 {
		epoch = inc
	} else if inc != 0 && inc != epoch {
		return nil, fmt.Errorf("core: memory node %d is incarnation %d, want %d", node, inc, epoch)
	}
	k := linkKeyFor(node, epoch)
	if l, ok := r.links[k]; ok {
		return l, nil
	}
	l := &rdmaLink{
		lkey:    k,
		node:    n.MemoryNode,
		writer:  r.runtime,
		qp:      rdma.Connect(r.localEP, n.Endpoint(), rdma.DefaultCostModel()),
		ep:      r.localEP,
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
	ep      *rdma.Endpoint // local side; staging grows to the largest span read (§16)
	staging *rdma.MR
	logBuf  *rdma.MR
}

func (l *rdmaLink) id() int       { return l.node.ID() }
func (l *rdmaLink) key() uint64   { return l.lkey }
func (l *rdmaLink) healthy() bool { return !l.node.Failed() }

func (l *rdmaLink) readPage(now simclock.Duration, off uint64, buf []byte) (simclock.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(buf) > len(l.staging.Bytes()) {
		l.ep.DeregisterMR(l.staging.Key())
		l.staging = l.ep.RegisterMR(len(buf))
	}
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

// readPages posts the spans' reads back to back: the NIC serializes their
// occupancy, and the propagation overlaps, as in one gather batch.
func (l *rdmaLink) readPages(now simclock.Duration, offs []uint64, bufs [][]byte) (done simclock.Duration, err error) {
	for i, off := range offs {
		if done, err = l.readPage(now, off, bufs[i]); err != nil {
			return now, err
		}
	}
	return done, nil
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

// tcpLinks dials memory-node daemons; wall-clock latencies are folded into
// the virtual clock. The cluster.Transport policy (deadlines, retry budget,
// pool size) it is built with applies to every node link it constructs.
type tcpLinks struct {
	ctrl    *cluster.ControllerClient // asked for a node's address
	tr      cluster.Transport
	runtime uint64 // writer identity stamped on node-link writes
	mu      sync.Mutex
	links   map[uint64]*tcpLink // keyed by linkKeyFor(node, incarnation)
}

func newTCPLinks(ctrl *cluster.ControllerClient, tr cluster.Transport, runtime uint64) *tcpLinks {
	return &tcpLinks{ctrl: ctrl, tr: tr, runtime: runtime, links: make(map[uint64]*tcpLink)}
}

func (r *tcpLinks) pipelined() bool { return true }

// link stamps epoch on the link's requests, so the daemon refuses them
// once the node has rejoined under another incarnation; epoch 0 stamps
// nothing.
func (r *tcpLinks) link(node int, epoch uint64) (nodeLink, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := linkKeyFor(node, epoch)
	if l, ok := r.links[k]; ok {
		return l, nil
	}
	// Links are made when a membership is installed (a control-path
	// step), never from the fetch or ship path, so the address lookup
	// costs one control RPC per new (node, incarnation), and making it
	// under the lock stalls no data.
	addrs, err := r.ctrl.NodeAddrs()
	if err != nil {
		return nil, err
	}
	addr, ok := addrs[node]
	if !ok {
		return nil, fmt.Errorf("core: no address known for memory node %d", node)
	}
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

// readPages is one read-pages RPC; the reply lands in bufs directly.
func (l *tcpLink) readPages(now simclock.Duration, offs []uint64, bufs [][]byte) (simclock.Duration, error) {
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
