package cluster

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"kona/internal/slab"
)

// ControllerClient talks to a remote controller daemon over pooled
// persistent connections. Safe for concurrent use.
type ControllerClient struct {
	pool *pool
}

// DialController returns a client for the controller at addr with the
// default transport policy. No connection is made until the first RPC.
func DialController(addr string) *ControllerClient {
	return DialControllerTransport(addr, DefaultTransport())
}

// DialControllerTransport returns a controller client with an explicit
// wire policy (timeouts, retries, pool size).
func DialControllerTransport(addr string, tr Transport) *ControllerClient {
	return &ControllerClient{pool: newPool(addr, tr)}
}

// Close releases the client's pooled connections.
func (c *ControllerClient) Close() error { return c.pool.Close() }

// RegisterNode announces a memory node's capacity and TCP address.
func (c *ControllerClient) RegisterNode(id int, capacity uint64, nodeAddr string) error {
	_, err := c.RegisterNodeEpoch(id, capacity, nodeAddr)
	return err
}

// RegisterNodeEpoch is RegisterNode returning the incarnation the
// controller assigned to this node instance — a rejoining daemon adopts
// it so its epoch fence rejects pre-crash placements.
func (c *ControllerClient) RegisterNodeEpoch(id int, capacity uint64, nodeAddr string) (uint64, error) {
	resp, err := c.pool.roundTrip(&Request{
		Kind: kindRegisterNode, NodeID: id, Capacity: capacity, Addr: nodeAddr,
	})
	if err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// SlabPlacements returns a placement group's current members — the
// compute-side refresh after a repair flip.
func (c *ControllerClient) SlabPlacements(group uint64) ([]slab.Slab, error) {
	resp, err := c.pool.roundTrip(&Request{Kind: kindSlabPlacements, SlabID: group})
	if err != nil {
		return nil, err
	}
	return resp.Slabs, nil
}

// ReportFailure tells the controller a node's log ships keep failing.
// The controller probes the node itself before expelling it; the return
// reports whether it was removed.
func (c *ControllerClient) ReportFailure(node int) (bool, error) {
	resp, err := c.pool.roundTrip(&Request{Kind: kindReportFailure, NodeID: node})
	if err != nil {
		return false, err
	}
	return resp.Entries == 1, nil
}

// ReportLoad pushes one load sample for node into the controller's load
// map (memnode daemons send their cumulative counters each interval;
// compute runtimes send pending-byte gauges).
func (c *ControllerClient) ReportLoad(node int, s LoadSample) error {
	_, err := c.pool.roundTrip(&Request{
		Kind: kindReportLoad, NodeID: node,
		Data: appendLoadSample(make([]byte, 0, loadSampleWireSize), s),
	})
	return err
}

// Epoch returns the controller's placement epoch (advances on every
// register, remove and repair flip).
func (c *ControllerClient) Epoch() (uint64, error) {
	resp, err := c.pool.roundTrip(&Request{Kind: kindPing})
	if err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// AllocSlab requests a slab placed on `replicas` distinct nodes, one
// member each. Retried transparently: the request ID lets the controller
// deduplicate replays, so a lost response cannot leak a slab. The hosting
// nodes' addresses are NodeAddrs's to tell.
func (c *ControllerClient) AllocSlab(size uint64, replicas int) ([]slab.Slab, error) {
	resp, err := c.pool.roundTrip(&Request{Kind: kindAllocSlab, Size: size, Replicas: replicas})
	if err != nil {
		return nil, err
	}
	if len(resp.Slabs) != replicas {
		return nil, fmt.Errorf("cluster: controller returned %d slabs for %d replicas", len(resp.Slabs), replicas)
	}
	return resp.Slabs, nil
}

// ReleaseSlab returns a slab's memory to its node and prunes the member
// from its placement group (Controller.ReleaseSlab).
func (c *ControllerClient) ReleaseSlab(s slab.Slab) error {
	_, err := c.pool.roundTrip(&Request{
		Kind: kindReleaseSlab, SlabID: s.ID, NodeID: s.Node, Offset: s.RemoteOff, Size: s.Size, Epoch: s.Epoch,
	})
	return err
}

// NodeAddrs returns the controller's current node-id -> TCP address map,
// the one reply that carries addresses.
func (c *ControllerClient) NodeAddrs() (map[int]string, error) {
	resp, err := c.pool.roundTrip(&Request{Kind: kindNodeAddr})
	if err != nil {
		return nil, err
	}
	return resp.Addrs, nil
}

// Ping checks liveness.
func (c *ControllerClient) Ping() error {
	_, err := c.pool.roundTrip(&Request{Kind: kindPing})
	return err
}

// decodeLeaseGrant unpacks a lease response: Epoch in the envelope,
// [version][ttl ns] in the payload.
func decodeLeaseGrant(resp *Response) (LeaseGrant, error) {
	if len(resp.Data) != 16 {
		return LeaseGrant{}, fmt.Errorf("cluster: lease response payload is %d bytes, want 16", len(resp.Data))
	}
	return LeaseGrant{
		Epoch:   resp.Epoch,
		Version: binary.BigEndian.Uint64(resp.Data),
		TTL:     time.Duration(binary.BigEndian.Uint64(resp.Data[8:])),
	}, nil
}

// AcquireLease requests a reader (LeaseReader) or writer (LeaseWriter)
// lease on a placement group for the given runtime identity. ttl 0 asks
// for the controller's default. A conflicting writer acquire fails with
// an error matching ErrLeaseConflict (errors.Is).
func (c *ControllerClient) AcquireLease(group, runtime uint64, mode int, ttl time.Duration) (LeaseGrant, error) {
	resp, err := c.pool.roundTrip(&Request{
		Kind: kindLeaseAcquire, SlabID: group, Runtime: runtime, Length: mode, Size: uint64(ttl),
	})
	if err != nil {
		return LeaseGrant{}, err
	}
	return decodeLeaseGrant(&resp)
}

// RenewLease extends an existing lease; a reader renew's returned Version
// is the invalidation signal (drop cached pages when it advances).
func (c *ControllerClient) RenewLease(group, runtime uint64, mode int, ttl time.Duration) (LeaseGrant, error) {
	resp, err := c.pool.roundTrip(&Request{
		Kind: kindLeaseRenew, SlabID: group, Runtime: runtime, Length: mode, Size: uint64(ttl),
	})
	if err != nil {
		return LeaseGrant{}, err
	}
	return decodeLeaseGrant(&resp)
}

// ReleaseLease drops every lease the runtime holds on the group.
func (c *ControllerClient) ReleaseLease(group, runtime uint64) error {
	_, err := c.pool.roundTrip(&Request{Kind: kindLeaseRelease, SlabID: group, Runtime: runtime})
	return err
}

// PublishLease bumps the group's version after the writer has flushed —
// the invalidation readers observe on their next renew.
func (c *ControllerClient) PublishLease(group, runtime uint64) (LeaseGrant, error) {
	resp, err := c.pool.roundTrip(&Request{Kind: kindLeaseInvalidate, SlabID: group, Runtime: runtime})
	if err != nil {
		return LeaseGrant{}, err
	}
	return decodeLeaseGrant(&resp)
}

// MemoryNodeClient talks to a remote memory-node daemon over pooled
// persistent connections. Safe for concurrent use.
type MemoryNodeClient struct {
	pool *pool
	// epoch, when nonzero, stamps every epoch-fenced RPC (kinds) with the
	// node incarnation the client believes it is talking to; a restarted
	// node rejects mismatches (epoch fencing, DESIGN.md §10).
	epoch atomic.Uint64
	// runtime, when nonzero, stamps writes with the calling runtime's
	// lease identity; a lease-fenced extent rejects writes from anyone
	// but the fence holder (§14).
	runtime atomic.Uint64
}

// SetEpoch sets the incarnation stamp for subsequent data RPCs (0
// disables fencing).
func (c *MemoryNodeClient) SetEpoch(epoch uint64) { c.epoch.Store(epoch) }

// SetRuntime sets the lease-identity stamp for subsequent writes (0
// means no identity — fenced extents reject such writes).
func (c *MemoryNodeClient) SetRuntime(id uint64) { c.runtime.Store(id) }

// DialMemoryNode returns a client for the node at addr with the default
// transport policy.
func DialMemoryNode(addr string) *MemoryNodeClient {
	return DialMemoryNodeTransport(addr, DefaultTransport())
}

// DialMemoryNodeTransport returns a memory-node client with an explicit
// wire policy.
func DialMemoryNodeTransport(addr string, tr Transport) *MemoryNodeClient {
	return &MemoryNodeClient{pool: newPool(addr, tr)}
}

// Close releases the client's pooled connections.
func (c *MemoryNodeClient) Close() error { return c.pool.Close() }

// roundTrip sends req with its payload segments send and its reply
// scattered into recv (see pool.roundTripIO), stamped with the client's
// incarnation when the kind is epoch-fenced.
func (c *MemoryNodeClient) roundTrip(req *Request, send, recv [][]byte) (Response, error) {
	if kinds[req.Kind].fenced {
		req.Epoch = c.epoch.Load()
	}
	return c.pool.roundTripIO(req, send, recv)
}

// ReadInto fetches len(buf) bytes at offset directly into buf: the reply
// payload is read off the socket straight into the caller's memory — no
// intermediate buffer, no copy.
func (c *MemoryNodeClient) ReadInto(offset uint64, buf []byte) error {
	_, err := c.roundTrip(&Request{Kind: kindRead, Offset: offset, Length: len(buf)}, nil, [][]byte{buf})
	return err
}

// ReadPagesInto gathers one span at each of the given pool offsets in a
// single round trip — the scatter-gather read the member-replacement copy
// uses to avoid one RPC per page — with the
// reply scattered directly into the caller's buffers (typically
// non-contiguous page frames), one per offset, all the same length. The
// concatenated reply payload is read off the socket segment by segment
// into bufs in request order; nothing is staged or copied.
func (c *MemoryNodeClient) ReadPagesInto(offsets []uint64, bufs [][]byte) error {
	if len(bufs) != len(offsets) {
		return fmt.Errorf("cluster: read-pages: %d offsets but %d buffers", len(offsets), len(bufs))
	}
	if len(bufs) == 0 {
		return fmt.Errorf("cluster: empty read-pages request")
	}
	length := len(bufs[0])
	for _, b := range bufs {
		if len(b) != length {
			return fmt.Errorf("cluster: read-pages buffers must be equal length")
		}
	}
	_, err := c.roundTrip(&Request{Kind: kindReadPages, Offsets: offsets, Length: length}, nil, bufs)
	return err
}

// WriteVec stores the concatenation of segs at offset in the node's
// pool. Each segment becomes one writev iovec shipped straight from the
// caller's buffer. A write is a pure overwrite, so the transport may
// retry it after a connection fault.
func (c *MemoryNodeClient) WriteVec(offset uint64, segs ...[]byte) error {
	_, err := c.roundTrip(&Request{Kind: kindWrite, Offset: offset, Runtime: c.runtime.Load()}, segs, nil)
	return err
}

// WriteLogVec ships a packed cache-line log, given as scatter segments,
// and returns the number of entries the receiver applied: each segment
// goes from its arena to the kernel as one writev iovec, and the receiver
// lands the whole payload directly in its log region — zero copies on
// either side of the wire. Log application is not idempotent at the
// receiver (it counts entries), so the transport does not retry it; the
// eviction layer decides whether to replay.
func (c *MemoryNodeClient) WriteLogVec(segs ...[]byte) (int, error) {
	resp, err := c.roundTrip(&Request{Kind: kindWriteLog, Runtime: c.runtime.Load()}, segs, nil)
	if err != nil {
		return 0, err
	}
	return resp.Entries, nil
}

// Ping checks liveness.
func (c *MemoryNodeClient) Ping() error {
	_, err := c.pool.roundTrip(&Request{Kind: kindPing})
	return err
}

// CaptureStart begins dirty-page capture on [off, off+size) at pageLen
// granularity (live member replacement, DESIGN.md §13).
func (c *MemoryNodeClient) CaptureStart(off, size, pageLen uint64) error {
	_, err := c.roundTrip(&Request{Kind: kindCaptureStart, Offset: off, Size: size, Length: int(pageLen)}, nil, nil)
	return err
}

// CaptureDrain returns (and clears) the page offsets dirtied in the
// captured extent since the capture started or was last drained. The
// offsets travel as 8-byte big-endian values in the response payload.
func (c *MemoryNodeClient) CaptureDrain(off, size uint64) ([]uint64, error) {
	resp, err := c.roundTrip(&Request{Kind: kindCaptureDrain, Offset: off, Size: size}, nil, nil)
	if err != nil {
		return nil, err
	}
	if len(resp.Data)%8 != 0 {
		return nil, fmt.Errorf("cluster: capture-drain payload of %d bytes", len(resp.Data))
	}
	if len(resp.Data) == 0 {
		return nil, nil
	}
	offs := make([]uint64, len(resp.Data)/8)
	for i := range offs {
		offs[i] = binary.BigEndian.Uint64(resp.Data[i*8:])
	}
	return offs, nil
}

// CaptureStop discards the capture on [off, off+size).
func (c *MemoryNodeClient) CaptureStop(off, size uint64) error {
	_, err := c.roundTrip(&Request{Kind: kindCaptureStop, Offset: off, Size: size}, nil, nil)
	return err
}

// Seal write-fences [off, off+size) on the node; writes and log batches
// touching it fail with ErrSealed until Unseal.
func (c *MemoryNodeClient) Seal(off, size uint64) error {
	_, err := c.roundTrip(&Request{Kind: kindSealExtent, Offset: off, Size: size}, nil, nil)
	return err
}

// Unseal lifts the write fence on [off, off+size).
func (c *MemoryNodeClient) Unseal(off, size uint64) error {
	_, err := c.roundTrip(&Request{Kind: kindUnsealExtent, Offset: off, Size: size}, nil, nil)
	return err
}

// LeaseFence restricts writes to [off, off+size) to the runtime holding
// the writer lease; holder 0 clears the fence. The controller pushes
// these when a group's writer changes.
func (c *MemoryNodeClient) LeaseFence(off, size, holder uint64) error {
	_, err := c.roundTrip(&Request{Kind: kindLeaseFence, Offset: off, Size: size, Runtime: holder}, nil, nil)
	return err
}

// ReleaseExtent drops every seal, lease fence and capture overlapping
// [off, off+size): the node side of a slab's release, which the controller
// awaits before it lists the extent free.
func (c *MemoryNodeClient) ReleaseExtent(off, size uint64) error {
	_, err := c.roundTrip(&Request{Kind: kindReleaseExtent, Offset: off, Size: size}, nil, nil)
	return err
}
