package cluster

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"time"

	"kona/internal/slab"
	"kona/internal/telemetry"
)

// serverMetrics is a daemon's pre-resolved telemetry: one request counter
// per RPC kind plus an error counter, per-kind wire-volume counters
// (tx_bytes/rx_bytes) and the payload-copies counter backing the
// bytes-copied-per-op guard (make bench-wire), resolved once at serve
// time so the handler path never touches the registry's map lock. nil
// disables.
type serverMetrics struct {
	served  [len(kinds)]*telemetry.Counter
	txBytes [len(kinds)]*telemetry.Counter
	rxBytes [len(kinds)]*telemetry.Counter
	// payloadCopies counts payload bytes staged through an intermediate
	// buffer on their way between the wire and their true destination:
	// the head of an inbound payload that arrived in the connection
	// buffer (for WriteLog into the log region that is all there is), and
	// one staging copy through the locked pool accessors for
	// Read/ReadPages/Write.
	payloadCopies *telemetry.Counter
	errors        *telemetry.Counter
	trace         *telemetry.Trace
}

func newServerMetrics(reg *telemetry.Registry, role string) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		payloadCopies: reg.Counter("cluster." + role + ".payload_copies"),
		errors:        reg.Counter("cluster." + role + ".errors"),
		trace:         reg.Trace(),
	}
	for k := kindInvalid + 1; int(k) < len(kinds); k++ {
		m.served[k] = reg.Counter("cluster." + role + ".served." + k.String())
		m.txBytes[k] = reg.Counter("cluster." + role + ".tx_bytes." + k.String())
		m.rxBytes[k] = reg.Counter("cluster." + role + ".rx_bytes." + k.String())
	}
	return m
}

// record counts one answered request: as served under its kind, and as
// an error when refused. A frame refused before it reached a handler is
// recorded under kindInvalid, which has no served counter.
func (m *serverMetrics) record(k kind, resp *Response) {
	if m == nil {
		return
	}
	m.served[k].Inc()
	if resp.Err != nil {
		m.errors.Inc()
	}
}

// countWire records one exchange's request/response wire volume.
func (m *serverMetrics) countWire(k kind, rx, tx int) {
	if m == nil {
		return
	}
	m.rxBytes[k].Add(uint64(rx))
	m.txBytes[k].Add(uint64(tx))
}

// countCopies records payload bytes that took an intermediate staging
// copy on the server.
func (m *serverMetrics) countCopies(n int) {
	if m == nil {
		return
	}
	m.payloadCopies.Add(uint64(n))
}

// dedupCache remembers responses to recent identified requests so a
// retried allocation is answered with its original result instead of
// re-executed — at-most-once semantics for AllocSlab when a response is
// lost in flight. Bounded FIFO; old entries age out long after any
// client's retry window has closed.
type dedupCache struct {
	mu    sync.Mutex
	byID  map[uint64]*Response
	order []uint64
	cap   int
}

func newDedupCache(capacity int) *dedupCache {
	return &dedupCache{byID: make(map[uint64]*Response), cap: capacity}
}

func (d *dedupCache) get(id uint64) (*Response, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.byID[id]
	return r, ok
}

func (d *dedupCache) put(id uint64, r *Response) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.byID[id]; dup {
		return
	}
	for len(d.order) >= d.cap {
		delete(d.byID, d.order[0])
		d.order = d.order[1:]
	}
	d.byID[id] = r
	d.order = append(d.order, id)
}

// ControllerServer exposes a Controller over TCP.
type ControllerServer struct {
	ctrl  *Controller
	l     net.Listener
	conns *connSet
	dedup *dedupCache
	m     *serverMetrics
	nodes *telemetry.Gauge
	// reg backs the per-node cluster.load.node.<id>.* metrics; the
	// node-id set is open, so a node's handles resolve at its first load
	// report and are kept in loads.
	reg *telemetry.Registry

	mu    sync.Mutex
	addrs map[int]string // node id -> TCP address
	loads map[int]*loadMetrics
	// pools holds the one connection pool per registered daemon address
	// that the controller's handles on the daemon share, across
	// incarnations: a rejoining daemon may come back at the same address.
	pools map[string]*pool
}

// ServeController starts a controller daemon on addr (":0" for ephemeral)
// and returns the server. Close stops it.
func ServeController(ctrl *Controller, addr string) (*ControllerServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return ServeControllerOn(ctrl, l), nil
}

// ServeControllerOn starts a controller daemon on an existing listener —
// the hook the fault-injection harness uses to interpose FaultListener.
func ServeControllerOn(ctrl *Controller, l net.Listener) *ControllerServer {
	return ServeControllerOnWith(ctrl, l, nil)
}

// ServeControllerOnWith is ServeControllerOn reporting into a telemetry
// registry: per-kind served and wire-volume counters, an error counter, a
// registered-node gauge, and registration/allocation trace events. nil
// disables.
func ServeControllerOnWith(ctrl *Controller, l net.Listener, reg *telemetry.Registry) *ControllerServer {
	s := &ControllerServer{
		ctrl:  ctrl,
		l:     l,
		conns: newConnSet(),
		dedup: newDedupCache(4096),
		m:     newServerMetrics(reg, "controller"),
		nodes: reg.Gauge("cluster.controller.nodes"),
		reg:   reg,
		addrs: make(map[int]string),
		loads: make(map[int]*loadMetrics),
		pools: make(map[string]*pool),
	}
	go serve(l, s.conns, s, s.m)
	return s
}

// daemonPool returns the connection pool to the daemon at addr.
func (s *ControllerServer) daemonPool(addr string) *pool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[addr]
	if !ok {
		p = newPool(addr, DefaultTransport())
		s.pools[addr] = p
	}
	return p
}

// closePools tears down the daemon connections.
func (s *ControllerServer) closePools() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pools {
		p.Close()
	}
}

// Addr returns the listening address.
func (s *ControllerServer) Addr() string { return s.l.Addr().String() }

// Close stops the server and tears down its live connections.
func (s *ControllerServer) Close() error {
	err := s.l.Close()
	s.conns.closeAll()
	s.closePools()
	return err
}

// Shutdown drains the daemon gracefully: stop accepting, let in-flight
// RPCs finish, then close everything. Connections still busy past the
// grace budget are closed hard. It returns the number of connections
// that were live when the drain began.
func (s *ControllerServer) Shutdown(grace time.Duration) int {
	s.l.Close()
	n := s.conns.drain(grace)
	s.closePools()
	return n
}

// payloadSink implements connHandler: the few controller payloads (load
// samples) are small and have no in-place destination.
func (s *ControllerServer) payloadSink(req *Request, n int) ([]byte, func(), error) {
	return stagePayload(n)
}

// serveReq implements connHandler. Controller replies are built whole
// (the dedup cache keeps them), so the envelope is copied out.
func (s *ControllerServer) serveReq(req *Request, resp *Response) *[]byte {
	*resp = *s.handle(req)
	return nil
}

func (s *ControllerServer) handle(req *Request) *Response {
	// AllocSlab mutates node state and is retried by clients; answer a
	// replayed request with its original slab rather than carving twice.
	if req.Kind == kindAllocSlab && req.ID != 0 {
		if resp, ok := s.dedup.get(req.ID); ok {
			if s.m != nil {
				s.m.trace.Emit("controller.dedup", fmt.Sprintf("alloc-slab id=%d replayed", req.ID))
			}
			return resp
		}
	}
	resp := s.dispatch(req)
	if req.Kind == kindAllocSlab && req.ID != 0 {
		s.dedup.put(req.ID, resp)
	}
	if req.Kind == kindRegisterNode && resp.Err == nil {
		// Set (not Inc): a crash-rejoin re-registers the same id, which
		// must not double-count.
		s.nodes.Set(int64(s.ctrl.Nodes()))
		if s.m != nil {
			s.m.trace.Emit("controller.register", fmt.Sprintf("node=%d capacity=%d addr=%s",
				req.NodeID, req.Capacity, req.Addr))
		}
	}
	return resp
}

func (s *ControllerServer) dispatch(req *Request) *Response {
	switch req.Kind {
	case kindRegisterNode:
		// Admission pings any incumbent through its own handle — the OLD
		// daemon — so a live holder rejects the duplicate, and a dead one
		// is expelled and the newcomer admitted under a higher incarnation.
		inc, err := s.ctrl.registerDaemon(req.NodeID, req.Capacity, s.daemonPool(req.Addr))
		if err != nil {
			return &Response{Err: err}
		}
		s.mu.Lock()
		s.addrs[req.NodeID] = req.Addr
		s.mu.Unlock()
		return &Response{Epoch: inc}
	case kindAllocSlab:
		slabs, err := s.ctrl.AllocSlab(req.Size, req.Replicas)
		if err != nil {
			return &Response{Err: err}
		}
		return &Response{Slabs: slabs}
	case kindReleaseSlab:
		err := s.ctrl.ReleaseSlab(slab.Slab{ID: req.SlabID, Node: req.NodeID, RemoteOff: req.Offset, Size: req.Size, Epoch: req.Epoch})
		if err != nil {
			return &Response{Err: err}
		}
		return &Response{}
	case kindNodeAddr:
		s.mu.Lock()
		addrs := maps.Clone(s.addrs)
		s.mu.Unlock()
		return &Response{Addrs: addrs}
	case kindSlabPlacements:
		members, err := s.ctrl.SlabPlacements(req.SlabID)
		if err != nil {
			return &Response{Err: err}
		}
		return &Response{Slabs: members, Epoch: s.ctrl.PlacementEpoch()}
	case kindReportFailure:
		removed := s.ctrl.ReportNodeFailure(req.NodeID)
		resp := &Response{Epoch: s.ctrl.PlacementEpoch()}
		if removed {
			resp.Entries = 1
		}
		return resp
	case kindReportLoad:
		sample, err := decodeLoadSample(req.Data)
		if err != nil {
			return &Response{Err: err}
		}
		s.publishLoad(s.ctrl.ReportLoad(req.NodeID, sample))
		return &Response{}
	case kindLeaseAcquire:
		g, err := s.ctrl.AcquireLease(req.SlabID, req.Runtime, req.Length, time.Duration(req.Size))
		return s.leaseResponse(g, err)
	case kindLeaseRenew:
		g, err := s.ctrl.RenewLease(req.SlabID, req.Runtime, req.Length, time.Duration(req.Size))
		return s.leaseResponse(g, err)
	case kindLeaseRelease:
		if err := s.ctrl.ReleaseLease(req.SlabID, req.Runtime); err != nil {
			return &Response{Err: err}
		}
		s.publishLeases()
		return &Response{}
	case kindLeaseInvalidate:
		g, err := s.ctrl.PublishLease(req.SlabID, req.Runtime)
		return s.leaseResponse(g, err)
	case kindPing:
		return &Response{Epoch: s.ctrl.PlacementEpoch()}
	default:
		return &Response{Err: fmt.Errorf("controller: unknown request %q", req.Kind)}
	}
}

// leaseResponse packs a lease grant: Epoch carries the lease epoch, and
// the payload is [version u64][granted TTL ns u64].
func (s *ControllerServer) leaseResponse(g LeaseGrant, err error) *Response {
	s.publishLeases()
	if err != nil {
		return &Response{Err: err}
	}
	data := appendU64(make([]byte, 0, 16), g.Version)
	data = appendU64(data, uint64(g.TTL))
	return &Response{Epoch: g.Epoch, Data: data}
}

// publishLeases surfaces the lease directory's counters on /metrics.
func (s *ControllerServer) publishLeases() {
	if s.reg == nil {
		return
	}
	ls := s.ctrl.LeaseSnapshot()
	s.reg.Counter("cluster.lease.grants").Store(ls.Grants)
	s.reg.Counter("cluster.lease.rejects").Store(ls.Rejects)
	s.reg.Counter("cluster.lease.expirations").Store(ls.Expirations)
	s.reg.Counter("cluster.lease.takeovers").Store(ls.Takeovers)
	s.reg.Counter("cluster.lease.publishes").Store(ls.Publishes)
	s.reg.Counter("cluster.lease.fence_errors").Store(ls.FenceErrors)
	s.reg.Gauge("cluster.lease.writers").Set(int64(ls.Writers))
	s.reg.Gauge("cluster.lease.readers").Set(int64(ls.Readers))
}

// publishLoad surfaces one node's load-map entry through /metrics:
// cluster.load.node.<id>.score and .pending gauges plus absolute
// traffic counters — what kona-kvload scrapes to print the per-memnode
// op/byte distribution.
func (s *ControllerServer) publishLoad(nl NodeLoad) {
	if s.reg == nil {
		return
	}
	s.mu.Lock()
	m := s.loads[nl.Node]
	if m == nil {
		p := fmt.Sprintf("cluster.load.node.%d.", nl.Node)
		m = &loadMetrics{s.reg.Gauge(p + "score"), s.reg.Gauge(p + "pending"),
			s.reg.Counter(p + "read_ops"), s.reg.Counter(p + "write_ops"),
			s.reg.Counter(p + "read_bytes"), s.reg.Counter(p + "write_bytes")}
		s.loads[nl.Node] = m
	}
	s.mu.Unlock()
	m.score.Set(int64(nl.Score))
	m.pending.Set(int64(nl.Pending))
	m.readOps.Store(nl.Totals.ReadOps)
	m.writeOps.Store(nl.Totals.WriteOps)
	m.readBytes.Store(nl.Totals.ReadBytes)
	m.writeBytes.Store(nl.Totals.WriteBytes)
}

// loadMetrics are one node's cluster.load.node.<id>.* handles.
type loadMetrics struct {
	score, pending                           *telemetry.Gauge
	readOps, writeOps, readBytes, writeBytes *telemetry.Counter
}

// MemoryNodeServer exposes a MemoryNode's pool over TCP: remote reads,
// remote writes, and the cache-line log receiver.
type MemoryNodeServer struct {
	node  *MemoryNode
	l     net.Listener
	conns *connSet
	m     *serverMetrics
	// Writeback-volume counters (nil handles when metrics are disabled).
	logEntries, logBytes, readBytes, writeBytes *telemetry.Counter
	// Scatter-gather read counters: pages and bytes served through the
	// batched ReadPages path.
	readPagesPages, readPagesBytes *telemetry.Counter

	// logMu serializes WriteLog handlers: the node has a single
	// log-receive region, and concurrent RPCs must not interleave their
	// payloads landing in it. It is taken in payloadSink (the wire bytes
	// are ReadFull'd straight into the region — the zero-copy receive
	// path) and held until the request has been handled. unlockLog is its
	// Unlock bound once, so handing it out as a release hook costs no
	// allocation per WriteLog.
	logMu     sync.Mutex
	unlockLog func()
}

// ServeMemoryNode starts a memory-node daemon on addr.
func ServeMemoryNode(node *MemoryNode, addr string) (*MemoryNodeServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return ServeMemoryNodeOn(node, l), nil
}

// ServeMemoryNodeOn starts a memory-node daemon on an existing listener —
// the hook the fault-injection harness uses to interpose FaultListener.
func ServeMemoryNodeOn(node *MemoryNode, l net.Listener) *MemoryNodeServer {
	return ServeMemoryNodeOnWith(node, l, nil)
}

// ServeMemoryNodeOnWith is ServeMemoryNodeOn reporting into a telemetry
// registry: per-kind served and wire-volume counters plus
// read/write/log volume counters. nil disables.
func ServeMemoryNodeOnWith(node *MemoryNode, l net.Listener, reg *telemetry.Registry) *MemoryNodeServer {
	s := &MemoryNodeServer{
		node:           node,
		l:              l,
		conns:          newConnSet(),
		m:              newServerMetrics(reg, "memnode"),
		logEntries:     reg.Counter("cluster.memnode.log_entries"),
		logBytes:       reg.Counter("cluster.memnode.log_bytes"),
		readBytes:      reg.Counter("cluster.memnode.read_bytes"),
		writeBytes:     reg.Counter("cluster.memnode.write_bytes"),
		readPagesPages: reg.Counter("cluster.readpages.pages"),
		readPagesBytes: reg.Counter("cluster.readpages.bytes"),
	}
	s.unlockLog = s.logMu.Unlock
	go serve(l, s.conns, s, s.m)
	return s
}

// Addr returns the listening address.
func (s *MemoryNodeServer) Addr() string { return s.l.Addr().String() }

// Close stops the server and tears down its live connections.
func (s *MemoryNodeServer) Close() error {
	err := s.l.Close()
	s.conns.closeAll()
	return err
}

// Shutdown drains the daemon gracefully: stop accepting, let in-flight
// RPCs (including a WriteLog mid-payload) finish, then close everything.
// Connections still busy past the grace budget are closed hard. It
// returns the number of connections live when the drain began.
func (s *MemoryNodeServer) Shutdown(grace time.Duration) int {
	s.l.Close()
	return s.conns.drain(grace)
}

// payloadSink implements connHandler: WriteLog payloads land directly in
// the node's log-receive region — the same bytes UnpackLogFrom scatters from
// — under logMu, so the log body is never staged on the server beyond
// the head that arrived with its frame header. Everything else stages
// through a pooled buffer.
func (s *MemoryNodeServer) payloadSink(req *Request, n int) ([]byte, func(), error) {
	if req.Kind == kindWriteLog {
		logBuf := s.node.logMR.Bytes()
		if n > len(logBuf) {
			return nil, nil, fmt.Errorf("memnode: log too large")
		}
		s.logMu.Lock()
		return logBuf[:n], s.unlockLog, nil
	}
	return stagePayload(n)
}

// serveReq implements connHandler: it executes req into resp. Read and
// ReadPages return the pooled staging buffer resp.Data aliases, which the
// serve loop recycles only after the frame has hit the wire.
func (s *MemoryNodeServer) serveReq(req *Request, resp *Response) *[]byte {
	// Epoch fence (DESIGN.md §10): a refusal is a RemoteError — delivered
	// and processed, never retried — so the stale peer refreshes instead of
	// corrupting the new incarnation's pool.
	if kinds[req.Kind].fenced {
		if resp.Err = s.node.checkIncarnation(req.Epoch); resp.Err != nil {
			return nil
		}
	}
	var err error
	switch req.Kind {
	case kindRead:
		if req.Length <= 0 || req.Length > maxFrameSize {
			resp.Err = fmt.Errorf("memnode: bad read length %d", req.Length)
			return nil
		}
		bp, buf := getPayloadBuf(req.Length)
		if err = s.node.ReadAt(req.Offset, buf); err != nil {
			putPayloadBuf(bp)
			break
		}
		s.m.countCopies(len(buf))
		s.readBytes.Add(uint64(req.Length))
		resp.Data = buf
		return bp
	case kindReadPages:
		// Scatter-gather read: each offset names one span of req.Length
		// bytes; the payloads are concatenated in request order so the
		// whole batch costs one frame each way, one node lock and one
		// read op in the load map.
		if req.Length <= 0 || len(req.Offsets) == 0 {
			resp.Err = errors.New("memnode: empty read-pages request")
			return nil
		}
		total := req.Length * len(req.Offsets)
		if total > maxFrameSize/2 {
			resp.Err = errors.New("memnode: read-pages batch too large")
			return nil
		}
		bp, data := getPayloadBuf(total)
		if err = s.node.ReadSpans(req.Offsets, req.Length, data); err != nil {
			putPayloadBuf(bp)
			resp.Err = err
			return nil
		}
		s.m.countCopies(total)
		s.readBytes.Add(uint64(total))
		s.readPagesPages.Add(uint64(len(req.Offsets)))
		s.readPagesBytes.Add(uint64(total))
		resp.Data = data
		return bp
	case kindWrite:
		if err = s.node.WriteAtFrom(req.Runtime, req.Offset, req.Data); err != nil {
			break
		}
		s.m.countCopies(len(req.Data))
		s.writeBytes.Add(uint64(len(req.Data)))
	case kindWriteLog:
		// The payload already sits in the log region (payloadSink holds
		// logMu until this handler returns); all that is left is to run
		// the receiver over it.
		if resp.Entries, _, err = s.node.UnpackLogFrom(req.Runtime, len(req.Data)); err != nil {
			resp.Entries = 0
			break
		}
		s.logEntries.Add(uint64(resp.Entries))
		s.logBytes.Add(uint64(len(req.Data)))
		if s.m != nil {
			s.m.trace.EmitAt(0, "memnode.writeback", "node=%d entries=%d bytes=%d",
				uint64(s.node.ID()), uint64(resp.Entries), uint64(len(req.Data)))
		}
	case kindCaptureStart:
		s.node.StartCapture(req.Offset, req.Size, uint64(req.Length))
	case kindCaptureDrain:
		offs := s.node.DrainCapture(req.Offset, req.Size)
		if len(offs) > 0 {
			resp.Data = make([]byte, 0, len(offs)*8)
			for _, off := range offs {
				resp.Data = appendU64(resp.Data, off)
			}
			resp.Entries = len(offs)
		}
	case kindCaptureStop:
		s.node.StopCapture(req.Offset, req.Size)
	case kindSealExtent:
		s.node.Seal(req.Offset, req.Size)
	case kindUnsealExtent:
		s.node.Unseal(req.Offset, req.Size)
	case kindLeaseFence:
		s.node.LeaseFence(req.Offset, req.Size, req.Runtime)
	case kindReleaseExtent:
		s.node.ReleaseExtent(req.Offset, req.Size)
	case kindPing:
	default:
		err = fmt.Errorf("memnode: unknown request %q", req.Kind)
	}
	resp.Err = err
	return nil
}
