package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kona/internal/telemetry"
)

// Transport is the wire policy for cluster clients: how long to wait, how
// hard to retry, and how many persistent connections to keep per peer.
// The zero value means "use defaults"; DefaultTransport returns the
// defaults explicitly.
type Transport struct {
	// DialTimeout bounds connection establishment. Default 2s.
	DialTimeout time.Duration
	// RequestTimeout is the per-attempt deadline covering the request
	// write and the response read. Default 5s.
	RequestTimeout time.Duration
	// MaxRetries is the number of extra attempts for idempotent requests
	// after the first fails with a transport error. Application-level
	// errors are never retried. 0 means the default (3); negative
	// disables retries entirely.
	MaxRetries int
	// BackoffBase is the first retry's backoff ceiling; each further
	// retry doubles it up to BackoffMax, and the actual sleep is drawn
	// uniformly from [0, ceiling) ("full jitter"). Defaults 2ms / 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// PoolSize is the maximum number of idle persistent connections kept
	// per peer address. Default 4.
	PoolSize int
	// Seed seeds the backoff jitter; 0 derives one from the wall clock.
	Seed int64
	// Metrics receives the transport's runtime telemetry (per-RPC latency
	// histograms, retry/redial/dial counters, per-kind wire-volume
	// counters, per-peer in-flight gauges). nil — the default — disables
	// instrumentation: the pool keeps nil handles and every record site
	// is a single pointer check (see BenchmarkTelemetryOverheadTCPRead).
	Metrics *telemetry.Registry
}

// DefaultTransport returns the default wire policy.
func DefaultTransport() Transport { return Transport{}.withDefaults() }

func (t Transport) withDefaults() Transport {
	if t.DialTimeout == 0 {
		t.DialTimeout = 2 * time.Second
	}
	if t.RequestTimeout == 0 {
		t.RequestTimeout = 5 * time.Second
	}
	switch {
	case t.MaxRetries == 0:
		t.MaxRetries = 3
	case t.MaxRetries < 0:
		t.MaxRetries = 0
	}
	if t.BackoffBase == 0 {
		t.BackoffBase = 2 * time.Millisecond
	}
	if t.BackoffMax == 0 {
		t.BackoffMax = 250 * time.Millisecond
	}
	if t.PoolSize == 0 {
		t.PoolSize = 4
	}
	return t
}

// reqID hands out unique request identifiers; the controller uses them to
// deduplicate retried allocations (at-most-once semantics). Seeded from
// the wall clock so independent client processes do not collide.
var reqID atomic.Uint64

func init() { reqID.Store(uint64(time.Now().UnixNano())) }

func nextReqID() uint64 { return reqID.Add(1) }

// poolMetrics is one pool's pre-resolved telemetry handles. A nil
// *poolMetrics is the disabled state; sites check it once per round trip.
type poolMetrics struct {
	latency [len(kinds)]*telemetry.Histogram // per-kind RPC latency, µs
	txBytes [len(kinds)]*telemetry.Counter   // per-kind request wire volume
	rxBytes [len(kinds)]*telemetry.Counter   // per-kind response wire volume
	// payloadCopies counts reply payload bytes that took a user-space
	// copy on their way to the caller: the head of a reply that arrived
	// in the connection buffer, and the whole payload of a reply read
	// without caller slices, which lands in an allocated staging buffer.
	payloadCopies *telemetry.Counter
	retries       *telemetry.Counter // backed-off re-sends
	redials       *telemetry.Counter // stale pooled conn replaced inline
	dials         *telemetry.Counter // fresh TCP connections
	failures      *telemetry.Counter // round trips exhausted/not retryable
	inflight      *telemetry.Gauge   // requests currently outstanding
	trace         *telemetry.Trace
}

func newPoolMetrics(reg *telemetry.Registry, addr string) *poolMetrics {
	m := &poolMetrics{
		payloadCopies: reg.Counter("cluster.rpc.payload_copies"),
		retries:       reg.Counter("cluster.rpc.retries"),
		redials:       reg.Counter("cluster.rpc.redials"),
		dials:         reg.Counter("cluster.rpc.dials"),
		failures:      reg.Counter("cluster.rpc.failures"),
		inflight:      reg.Gauge("cluster.inflight." + addr),
		trace:         reg.Trace(),
	}
	for k := kindInvalid + 1; int(k) < len(kinds); k++ {
		m.latency[k] = reg.Histogram("cluster.rpc." + k.String() + ".latency_us")
		m.txBytes[k] = reg.Counter("cluster.rpc.tx_bytes." + k.String())
		m.rxBytes[k] = reg.Counter("cluster.rpc.rx_bytes." + k.String())
	}
	return m
}

// pool is a persistent-connection pool to one peer address. All methods
// are safe for concurrent use.
type pool struct {
	addr string
	tr   Transport
	m    *poolMetrics

	mu     sync.Mutex
	idle   []*poolConn
	rng    *rand.Rand
	closed bool
}

// poolConn is one persistent client connection: requests are written to
// the socket itself, replies come back through the connection's frame
// reader.
type poolConn struct {
	net.Conn
	in frameReader
}

func newPoolConn(c net.Conn) *poolConn {
	return &poolConn{Conn: c, in: frameReader{src: c}}
}

func newPool(addr string, tr Transport) *pool {
	tr = tr.withDefaults()
	seed := tr.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	p := &pool{addr: addr, tr: tr, rng: rand.New(rand.NewSource(seed))}
	if tr.Metrics != nil {
		p.m = newPoolMetrics(tr.Metrics, addr)
	}
	return p
}

// get pops an idle connection or dials a fresh one. pooled reports which.
func (p *pool) get() (c *poolConn, pooled bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("cluster: client closed")
	}
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err = p.dial()
	return c, false, err
}

// dial opens a fresh connection, bypassing the idle pool.
func (p *pool) dial() (*poolConn, error) {
	c, err := net.DialTimeout("tcp", p.addr, p.tr.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", p.addr, err)
	}
	if p.m != nil {
		p.m.dials.Inc()
	}
	return newPoolConn(c), nil
}

// put returns a healthy connection to the pool (or closes it when full).
// A connection with bytes still buffered is not healthy: the peer sent
// more than the frame it owed, and the surplus would be taken for the
// start of the next reply.
func (p *pool) put(c *poolConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.tr.PoolSize && c.in.buffered() == 0 {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.Close()
}

// Close drops every idle connection and fails future round trips.
func (p *pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
	return nil
}

// backoff returns the sleep before retry attempt n (0-based): full jitter
// over an exponentially growing ceiling.
func (p *pool) backoff(n int) time.Duration {
	ceil := p.tr.BackoffBase << uint(n)
	if ceil > p.tr.BackoffMax || ceil <= 0 {
		ceil = p.tr.BackoffMax
	}
	p.mu.Lock()
	d := time.Duration(p.rng.Int63n(int64(ceil)))
	p.mu.Unlock()
	return d
}

// exchange performs one framed request/response on conn under the
// per-attempt deadline, armed once and never cleared: nothing touches an
// idle pooled connection, and the next attempt re-arms before any I/O.
// send is the request's payload as writev iovecs shipped straight from
// their owning buffers; recv, when non-nil, receives the reply payload
// scattered into the caller's slices. sent reports whether the request
// hit the wire — if false, the peer cannot have processed it. A
// completed exchange counts its wire volume.
func (p *pool) exchange(conn *poolConn, req *Request, send, recv [][]byte, resp *Response) (sent bool, err error) {
	_ = conn.SetDeadline(time.Now().Add(p.tr.RequestTimeout))
	tx, err := writeRequestFrame(conn.Conn, req, send...)
	if err != nil {
		return false, err
	}
	rx, copied, err := conn.in.readResponse(resp, recv)
	if err == nil && p.m != nil {
		if recv == nil {
			// The payload sits in a staging allocation, whichever way its
			// bytes got there.
			copied = len(resp.Data)
		}
		p.m.txBytes[req.Kind].Add(uint64(tx))
		p.m.rxBytes[req.Kind].Add(uint64(rx))
		p.m.payloadCopies.Add(uint64(copied))
	}
	return true, err
}

// once performs a single logical attempt. A write failure on a reused
// idle connection means the peer closed it while pooled and the request
// was never processed, so one immediate redial is safe even for
// non-idempotent requests.
func (p *pool) once(req *Request, send, recv [][]byte, resp *Response) error {
	conn, pooled, err := p.get()
	if err != nil {
		return err
	}
	sent, err := p.exchange(conn, req, send, recv, resp)
	if err != nil {
		conn.Close()
		if !pooled || sent {
			return err
		}
		if p.m != nil {
			p.m.redials.Inc()
		}
		if conn, err = p.dial(); err != nil {
			return err
		}
		if _, err = p.exchange(conn, req, send, recv, resp); err != nil {
			conn.Close()
			return err
		}
	}
	p.put(conn)
	return nil
}

// roundTrip sends req and awaits its response over a pooled persistent
// connection. req.Data, if set, travels as the (single-segment) payload;
// the reply payload, if any, lands in an allocated resp.Data.
func (p *pool) roundTrip(req *Request) (Response, error) {
	if req.Data != nil {
		return p.roundTripIO(req, [][]byte{req.Data}, nil)
	}
	return p.roundTripIO(req, nil, nil)
}

// roundTripIO is the scatter-gather round trip: send's segments are
// writev'd as the request payload without being copied or concatenated,
// and — when recv is non-nil — the reply payload is read directly into
// recv's slices (which must sum to the expected length). Idempotent
// requests are retried with exponential backoff and jitter; a retried
// receive simply overwrites recv. Application-level errors
// (Response.Err) are returned verbatim and never retried.
func (p *pool) roundTripIO(req *Request, send, recv [][]byte) (Response, error) {
	if req.ID == 0 {
		req.ID = nextReqID()
	}
	var start time.Time
	if p.m != nil {
		start = time.Now()
		p.m.inflight.Inc()
		defer p.m.inflight.Dec()
	}
	attempts := 1
	if kinds[req.Kind].retryable {
		attempts += p.tr.MaxRetries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if p.m != nil {
				p.m.retries.Inc()
				p.m.trace.Emit("rpc.retry",
					fmt.Sprintf("kind=%s peer=%s attempt=%d err=%v", req.Kind, p.addr, i+1, lastErr))
			}
			time.Sleep(p.backoff(i - 1))
		}
		var resp Response
		if lastErr = p.once(req, send, recv, &resp); lastErr == nil {
			if p.m != nil {
				p.m.latency[req.Kind].Observe(time.Since(start).Microseconds())
			}
			return resp, resp.Err
		}
	}
	if p.m != nil {
		p.m.failures.Inc()
		p.m.trace.Emit("rpc.failed",
			fmt.Sprintf("kind=%s peer=%s attempts=%d err=%v", req.Kind, p.addr, attempts, lastErr))
	}
	return Response{}, fmt.Errorf("cluster: %s to %s failed after %d attempts: %w",
		req.Kind, p.addr, attempts, lastErr)
}
