package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"kona/internal/slab"
)

// TCP wire protocol for the standalone daemons (cmd/kona-controller and
// cmd/kona-memnode). Messages are binary frames (frame.go, codec.go)
// carried over persistent connections: a client keeps a small pool of
// conns per peer (transport.go) and a server keeps answering requests on
// each conn until the peer closes it. The in-process runtime does not use
// this path; it exists so the rack pieces can run as real networked
// processes and so §4.5's failure handling can be exercised over real
// sockets (faultconn.go).

// kind is a request's wire kind: the byte in its frame prefix and the
// index of its row in kinds. The byte values are part of the wire format
// — append only, never renumber.
type kind byte

const (
	kindInvalid kind = iota
	kindRegisterNode
	kindAllocSlab
	kindNodeAddr
	kindRead
	kindReadPages
	kindWrite
	kindWriteLog
	kindReleaseSlab
	kindPing
	kindSlabPlacements
	kindReportFailure
	kindReportLoad
	kindCaptureStart
	kindCaptureDrain
	kindCaptureStop
	kindSealExtent
	kindUnsealExtent
	kindLeaseAcquire
	kindLeaseRenew
	kindLeaseRelease
	kindLeaseInvalidate
	kindLeaseFence
	kindReleaseExtent

	// kindResponse is the prefix kind of every reply frame.
	kindResponse kind = 0x80
)

// kindInfo is everything the package knows about one request kind.
type kindInfo struct {
	// name names the kind in telemetry (cluster.rpc.<name>.latency_us,
	// cluster.<role>.served.<name>, ...), errors and trace events.
	name string
	// retryable: the transport may re-send the request after a transport
	// error without changing its effect.
	retryable bool
	// fenced: a memnode refuses the request when it is stamped with an
	// incarnation the node does not hold (epoch fencing, DESIGN.md §10).
	fenced bool
}

// kinds is the one table of request kinds, indexed by wire byte. Row 0
// (kindInvalid) is never sent. Each row's comment says why a replay of
// the kind is or is not safe.
var kinds = [...]kindInfo{
	kindRegisterNode: {"register-node", false, false}, // a replay finds its own first attempt live and is refused as a duplicate
	kindAllocSlab:    {"alloc-slab", true, false},     // carries a request ID the server deduplicates on
	kindNodeAddr:     {"node-addr", true, false},      // stateless
	kindRead:         {"read", true, true},            // stateless
	kindReadPages:    {"read-pages", true, true},      // stateless
	kindWrite:        {"write", true, true},           // a pure overwrite of the same bytes
	kindWriteLog:     {"write-log", false, true},      // the receiver counts entries; the evictor decides whether to replay
	kindReleaseSlab:  {"release-slab", false, false},  // a replay would list the extent free twice
	kindPing:         {"ping", true, false},           // stateless
	// Fault tolerance (DESIGN.md §10): compute nodes fetch a placement
	// group's current members after a repair flip, and report nodes whose
	// log ships keep failing so the controller can probe and expel them.
	kindSlabPlacements: {"slab-placements", true, false}, // a lookup
	kindReportFailure:  {"report-failure", true, false},  // the controller probes before it expels
	// Capacity management (§13): memnode daemons push their load counters
	// to the controller, and the replacement engine drives the memnode's
	// dirty capture and extent seal. The header layout is append-only, so
	// a structured argument such as the load sample (7 big-endian u64
	// fields) travels in the frame payload.
	kindReportLoad:   {"report-load", true, false},   // absorbed idempotently by the EWMA
	kindCaptureStart: {"capture-start", true, true},  // level-triggered
	kindCaptureDrain: {"capture-drain", false, true}, // CLEARS the dirty set it returns: a replay after a lost reply drops delta pages
	kindCaptureStop:  {"capture-stop", true, true},   // level-triggered
	kindSealExtent:   {"seal-extent", true, true},    // level-triggered
	kindUnsealExtent: {"unseal-extent", true, true},  // level-triggered
	// Leases (§14): runtimes acquire, renew and release per-group reader
	// or writer leases at the controller; lease-invalidate is the writer's
	// publish (a version bump) that readers observe on their next renew;
	// lease-fence is controller→memnode, arming the extent fence that
	// refuses a stale writer's WriteLog batches.
	kindLeaseAcquire:    {"lease-acquire", true, false},    // re-grants to the same holder
	kindLeaseRenew:      {"lease-renew", true, false},      // re-grants to the same holder
	kindLeaseRelease:    {"lease-release", true, false},    // releasing a lease not held is a no-op
	kindLeaseInvalidate: {"lease-invalidate", true, false}, // keyed by holder: a replay cannot bump past another writer
	kindLeaseFence:      {"lease-fence", true, true},       // level-triggered
	// A slab's release reaches its node (§10): release-extent, controller→
	// memnode, drops every guard on the extent before the controller lists
	// it free.
	kindReleaseExtent: {"release-extent", true, true}, // level-triggered, and the controller re-lists the extent only after the ack
}

// known reports whether k names a row of kinds.
func (k kind) known() bool { return int(k) < len(kinds) && kinds[k].name != "" }

func (k kind) String() string {
	if !k.known() {
		return fmt.Sprintf("kind 0x%02x", byte(k))
	}
	return kinds[k].name
}

// Typed refusals. The refusing code wraps one with %w; a response carries
// which one as its status byte, so errors.Is answers the same over the
// wire (RemoteError.Is) as in process.
var (
	// ErrSealed: the write touches an extent a migration has sealed. The
	// flip is imminent; the writer refreshes its placements and replays.
	ErrSealed = errors.New("extent sealed for migration")
	// ErrLeaseFenced: the write touches an extent lease-fenced to another
	// runtime. The caller's writer lease was taken over; unlike a seal this
	// is not transient, and the stale writer must stop.
	ErrLeaseFenced = errors.New("extent lease-fenced")
	// ErrLeaseConflict: another runtime holds an unexpired writer lease, or
	// the caller's own writer lease was lost to a takeover.
	ErrLeaseConflict = errors.New("lease conflict")
	// ErrStaleIncarnation: the request was stamped with an incarnation the
	// memory node does not hold; the sender's placements predate a
	// crash-rejoin.
	ErrStaleIncarnation = errors.New("epoch fence")
)

// statusErrs is the typed-refusal table: a response's status byte (kw v2
// rev 4) is the index of the sentinel its error wraps, 0 for success or
// an untyped error. Append only, never renumber.
var statusErrs = [...]error{1: ErrSealed, 2: ErrLeaseFenced, 3: ErrLeaseConflict, 4: ErrStaleIncarnation}

// statusOf is the status a server sends for err.
func statusOf(err error) byte {
	for s := 1; s < len(statusErrs); s++ {
		if errors.Is(err, statusErrs[s]) {
			return byte(s)
		}
	}
	return 0
}

// loadSampleWireSize is the report-load payload: ReadOps, WriteOps,
// ReadBytes, WriteBytes, LogBytes, LogEntries, PendingBytes.
const loadSampleWireSize = 7 * 8

// appendLoadSample encodes s as the report-load request payload.
func appendLoadSample(b []byte, s LoadSample) []byte {
	b = appendU64(b, s.ReadOps)
	b = appendU64(b, s.WriteOps)
	b = appendU64(b, s.ReadBytes)
	b = appendU64(b, s.WriteBytes)
	b = appendU64(b, s.LogBytes)
	b = appendU64(b, s.LogEntries)
	b = appendU64(b, s.PendingBytes)
	return b
}

// decodeLoadSample parses a report-load payload.
func decodeLoadSample(b []byte) (LoadSample, error) {
	if len(b) != loadSampleWireSize {
		return LoadSample{}, fmt.Errorf("cluster: load sample payload is %d bytes, want %d", len(b), loadSampleWireSize)
	}
	r := wireReader{b: b}
	s := LoadSample{
		ReadOps:      r.u64(),
		WriteOps:     r.u64(),
		ReadBytes:    r.u64(),
		WriteBytes:   r.u64(),
		LogBytes:     r.u64(),
		LogEntries:   r.u64(),
		PendingBytes: r.u64(),
	}
	return s, r.done("load sample")
}

// Request is the single envelope for every RPC. Data is the frame
// payload: it never passes through the header codec — the sender ships
// it as writev iovecs straight from its owning buffer, and the server
// lands it directly in its destination (payloadSink).
type Request struct {
	Kind kind
	// ID uniquely identifies the request across retries; servers use it
	// to deduplicate replayed non-idempotent requests (AllocSlab).
	ID uint64

	// RegisterNode
	NodeID   int
	Capacity uint64
	Addr     string

	// AllocSlab: Replicas is the placement group's member count, 1 for a
	// plain slab; the controller refuses 0.
	Size     uint64
	Replicas int

	// Read/Write/WriteLog/ReleaseSlab
	Offset uint64
	Length int
	Data   []byte

	// ReadPages: pool offsets of the pages to gather, each Length bytes.
	// One frame replaces len(Offsets) Read round trips; the reply carries
	// the payloads concatenated in request order.
	Offsets []uint64

	// SlabPlacements: the placement-group id to look up.
	SlabID uint64

	// Epoch stamps data RPCs to a memory node with the incarnation the
	// sender believes it is talking to; a restarted node rejects
	// mismatches (epoch fencing, §10). Zero disables the fence.
	Epoch uint64

	// Runtime identifies the calling compute runtime for the lease
	// protocol (§14): it names the lease holder on Acquire/Renew/Release,
	// the fence holder on LeaseFence, and stamps Write/WriteLog so a
	// memnode can reject batches from a fenced-out stale writer. Zero
	// means "no runtime identity" and is never fenced against itself.
	Runtime uint64
}

// Response is the single envelope for every reply. Data is the frame
// payload (see Request.Data); on the client it can land directly in
// caller-provided frames instead (pool.roundTripIO's recv vector).
type Response struct {
	// Err is the server's refusal. On the wire it travels as its text plus
	// its status; the client decodes it as a *RemoteError.
	Err error

	// AllocSlab
	Slabs []slab.Slab
	// NodeAddr lookups
	Addrs map[int]string

	// Read
	Data []byte
	// WriteLog
	Entries int

	// Epoch carries incarnation/placement-epoch values back to clients:
	// RegisterNode returns the node's assigned incarnation, Ping (to the
	// controller) the current placement epoch.
	Epoch uint64
}

// RemoteError is an error the server reported while executing a request.
// The request was delivered and processed; transports must not retry it.
type RemoteError struct {
	Msg    string
	status byte // index into statusErrs
}

func (e *RemoteError) Error() string { return e.Msg }

// Is reports whether the server typed this refusal as target, one of the
// typed-refusal sentinels; the text plays no part.
func (e *RemoteError) Is(target error) bool { return statusErrs[e.status] == target }

// readResponse reads one response frame into resp. When recv is non-nil
// the payload is scattered into recv's slices in order — the receive
// path landing reply bytes in caller frames; otherwise a payload is
// returned in a freshly allocated resp.Data. n is the frame's size on the
// wire, copied how many payload bytes went through the reader's buffer.
func (f *frameReader) readResponse(resp *Response, recv [][]byte) (n, copied int, err error) {
	k, hdr, payLen, err := f.readHeader()
	if err != nil {
		return 0, 0, err
	}
	if k != kindResponse {
		return 0, 0, fmt.Errorf("cluster: expected a response frame, got kind 0x%02x", byte(k))
	}
	if err := decodeResponseHeader(hdr, resp); err != nil {
		return 0, 0, err
	}
	n = framePrefixLen + len(hdr) + payLen
	if resp.Err != nil && payLen > 0 {
		// An error response never carries a payload; a peer that sends
		// one is desynced. Tear the connection down rather than guess.
		return 0, 0, fmt.Errorf("cluster: error response carried %d payload bytes", payLen)
	}
	resp.Data = nil
	switch {
	case recv != nil && resp.Err == nil:
		copied, err = f.readPayload(payLen, recv...)
	case payLen > 0:
		resp.Data = make([]byte, payLen)
		copied, err = f.readPayload(payLen, resp.Data)
	}
	return n, copied, err
}

// connSet tracks a server's live connections so Close can tear them down;
// persistent connections otherwise outlive a closed listener. It also
// carries the graceful-drain state: per-connection busy flags written
// under the same lock drain reads them, so waking an idle reader can
// never clobber the deadline protecting a request in flight.
type connSet struct {
	mu       sync.Mutex
	conns    map[net.Conn]*srvConn
	closed   bool
	draining bool
	wg       sync.WaitGroup // live connection goroutines
}

// srvConn is one connection's drain state: busy spans from a request's
// frame header arriving to its response hitting the wire.
type srvConn struct {
	busy bool
}

func newConnSet() *connSet { return &connSet{conns: make(map[net.Conn]*srvConn)} }

// add registers a connection; it returns nil (and closes the conn) if
// the server is already shutting down.
func (s *connSet) add(c net.Conn) *srvConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		c.Close()
		return nil
	}
	sc := &srvConn{}
	s.conns[c] = sc
	s.wg.Add(1)
	return sc
}

func (s *connSet) remove(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.wg.Done()
}

// serveReqDeadline bounds one request once its frame header has arrived
// — payload read, handling and the reply write — so a drain is never
// hostage to a peer that stalls mid-frame or stops reading its reply.
const serveReqDeadline = 30 * time.Second

// beginReq marks a connection busy for the span of one request and arms
// the one per-request deadline — under the drain lock, so a concurrent
// drain either already woke this reader (the frame header would have
// timed out) or sees busy and leaves the deadline alone.
func (s *connSet) beginReq(c net.Conn, sc *srvConn) {
	s.mu.Lock()
	sc.busy = true
	_ = c.SetDeadline(time.Now().Add(serveReqDeadline))
	s.mu.Unlock()
}

// endReq returns the connection to idle — the read that waits for the
// next frame carries no deadline, so only a drain's SetReadDeadline can
// wake it; true means the server is draining and the connection loop
// should exit at this boundary.
func (s *connSet) endReq(c net.Conn, sc *srvConn) bool {
	s.mu.Lock()
	sc.busy = false
	_ = c.SetDeadline(time.Time{})
	draining := s.draining
	s.mu.Unlock()
	return draining
}

// drain shuts down gracefully: refuse new connections, wake every reader
// blocked at a frame boundary, let in-flight requests finish, and close
// whatever is still busy once the grace budget runs out. It returns the
// number of connections that were live when the drain began.
func (s *connSet) drain(grace time.Duration) int {
	s.mu.Lock()
	s.draining = true
	n := len(s.conns)
	for c, sc := range s.conns {
		if !sc.busy {
			_ = c.SetReadDeadline(time.Now())
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		s.closeAll()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return n
}

// closeAll closes every live connection and rejects future ones.
func (s *connSet) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]*srvConn{}
}

// connHandler is a server's side of the wire protocol. Splitting payload
// placement (payloadSink) from execution (serveReq) lets a large payload
// land where it belongs: the sink can hand back the payload's final
// destination — the memnode's log region for WriteLog — and the serve
// loop reads the wire into it.
type connHandler interface {
	// payloadSink returns the buffer an inbound request's n-byte payload
	// lands in. release, if non-nil, runs after the request has been
	// handled (it guards the destination, e.g. the memnode's log-region
	// lock). A returned error refuses the payload: the bytes are drained
	// off the stream and err becomes the response.
	payloadSink(req *Request, n int) (dst []byte, release func(), err error)
	// serveReq executes one request (its payload, if any, already placed
	// in req.Data) and fills in resp, the connection's zeroed reply
	// envelope. A non-nil staged is the pooled buffer resp.Data aliases;
	// the serve loop recycles it once the response has hit the wire.
	serveReq(req *Request, resp *Response) (staged *[]byte)
}

// stagePayload is the generic payload sink: a pooled buffer for requests
// whose payload has no in-place destination (controller RPCs, Write
// bodies that must be bounds-checked before touching the pool).
func stagePayload(n int) ([]byte, func(), error) {
	bp, buf := getPayloadBuf(n)
	return buf, func() { putPayloadBuf(bp) }, nil
}

// serve accepts connections and answers framed requests on each until the
// peer closes it, the frame stream turns invalid, or the server shuts
// down. One goroutine per connection; the handler must be safe for
// concurrent use. m (nil disables) counts each exchange's wire volume
// and the inbound payload bytes copied through the connection buffer.
func serve(l net.Listener, cs *connSet, h connHandler, m *serverMetrics) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		sc := cs.add(conn)
		if sc == nil {
			// Shutting down: the listener is closed (or about to be), so
			// the next Accept fails and ends the loop.
			continue
		}
		go serveConn(conn, sc, cs, h, m)
	}
}

// serveConn is one connection's request loop. Reads go through the
// connection's frameReader; the reply goes to conn itself, so on a
// *net.TCPConn header and payload still leave as one writev.
func serveConn(conn net.Conn, sc *srvConn, cs *connSet, h connHandler, m *serverMetrics) {
	defer func() {
		cs.remove(conn)
		conn.Close()
	}()
	in := &frameReader{src: conn}
	var req Request
	var resp Response
	// offs keeps the Offsets backing array across requests: a request
	// without offsets decodes to nil, and the next read-pages reuses it.
	var offs []uint64
	for {
		k, hdr, payLen, err := in.readHeader()
		if err != nil {
			// EOF at a frame boundary is a clean close; a timeout here is
			// the drain wake-up; anything else (bad magic, truncation) is
			// unrecoverable on a framed stream — drop the conn either way.
			return
		}
		// A request is in flight: mark the conn busy and put the rest of
		// it under one deadline, under the same lock drain uses, so a
		// concurrent drain waits for us.
		cs.beginReq(conn, sc)
		req = Request{Offsets: offs}
		resp = Response{}
		var staged *[]byte
		var dst []byte
		var release func()
		refused := decodeRequestHeader(k, hdr, &req)
		if req.Offsets != nil {
			offs = req.Offsets[:0]
		}
		if refused == nil && payLen > 0 {
			dst, release, refused = h.payloadSink(&req, payLen)
		}
		if refused != nil {
			// The header is consumed and the payload length known, so the
			// stream stays framed: drain and answer.
			if in.discardPayload(payLen) != nil {
				return
			}
			resp.Err = refused
			m.record(kindInvalid, &resp) // an error, never served
		} else {
			copied, rerr := in.readPayload(payLen, dst)
			if rerr == nil {
				m.countCopies(copied)
				req.Data = dst
				staged = h.serveReq(&req, &resp)
				req.Data = nil
				m.record(req.Kind, &resp)
			}
			if release != nil {
				release()
			}
			if rerr != nil {
				return
			}
		}
		tx, werr := writeResponseFrame(conn, &resp, resp.Data)
		if staged != nil {
			putPayloadBuf(staged)
		}
		m.countWire(req.Kind, framePrefixLen+len(hdr)+payLen, tx)
		if werr != nil {
			return
		}
		// Back to idle at the frame boundary; if a drain started while we
		// served, this is where the connection exits.
		if cs.endReq(conn, sc) {
			return
		}
	}
}
