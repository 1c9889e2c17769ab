package cluster

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"kona/internal/cllog"
)

// Path-length guards for the kw v2 round trip (make bench-wire): they
// count what a page fetch does to its two sockets — read calls, write
// calls, deadline calls, allocations — instead of timing it, so they
// fail the same way on any host.

// countConn counts the calls a connection's owner makes. It embeds
// *net.TCPConn, so a net.Buffers write still goes out as one writev —
// which bypasses Write: a frame with a payload counts zero writes here,
// and any Write call means the vector fell apart or header and payload
// were sent separately.
type countConn struct {
	*net.TCPConn
	reads, writes, deadlines atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

func (c *countConn) SetDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.TCPConn.SetDeadline(t)
}

func (c *countConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.TCPConn.SetReadDeadline(t)
}

func (c *countConn) SetWriteDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.TCPConn.SetWriteDeadline(t)
}

func (c *countConn) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.deadlines.Store(0)
}

// countListener hands every accepted connection to the server under a
// countConn and to the test on accepted.
type countListener struct {
	net.Listener
	accepted chan *countConn
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countConn{TCPConn: c.(*net.TCPConn)}
	l.accepted <- cc
	return cc, nil
}

// countedRig is a memnode daemon and a client joined by exactly one
// connection, counted at both ends.
func countedRig(t *testing.T) (mc *MemoryNodeClient, node *MemoryNode, client, server *countConn) {
	t.Helper()
	node = NewMemoryNode(1, 8<<20)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := countListener{Listener: inner, accepted: make(chan *countConn, 1)}
	srv := ServeMemoryNodeOn(node, l)
	t.Cleanup(func() { srv.Close() })
	mc = DialMemoryNode(srv.Addr())
	t.Cleanup(func() { mc.Close() })
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client = &countConn{TCPConn: raw.(*net.TCPConn)}
	mc.pool.put(newPoolConn(client))
	return mc, node, client, <-l.accepted
}

// TestPageFetchPathLength pins what one pooled 4 KB ReadInto costs: one
// data-returning read and one write per end, at most one deadline call
// on the client and two on the server, no allocation.
func TestPageFetchPathLength(t *testing.T) {
	mc, node, client, server := countedRig(t)
	want := bytes.Repeat([]byte{0xA7}, 4096)
	if err := node.WriteAt(4096, want); err != nil {
		t.Fatal(err)
	}
	// The server makes its two deadline calls for a request only after
	// writing the reply; give its loop a moment to get back to the idle
	// read, so the warm-up's calls are not counted against the measured
	// request and the measured request's are all counted.
	settle := func() {
		deadline := time.Now().Add(2 * time.Second)
		for server.deadlines.Load() < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	frame := make([]byte, 4096)
	if err := mc.ReadInto(4096, frame); err != nil { // warm pools and scratch
		t.Fatal(err)
	}
	settle()
	client.reset()
	server.reset()
	for i := range frame {
		frame[i] = 0
	}
	if err := mc.ReadInto(4096, frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatal("page fetch returned wrong bytes")
	}
	settle()
	if r, w, d := client.reads.Load(), client.writes.Load(), client.deadlines.Load(); r != 1 || w != 1 || d > 1 {
		t.Errorf("client: %d reads, %d writes, %d deadline calls; want 1, 1, <= 1", r, w, d)
	}
	// The request has no payload (a plain Write); the reply has one, so it
	// leaves as a writev and must not show up as a Write.
	if r, w, d := server.reads.Load(), server.writes.Load(), server.deadlines.Load(); r != 1 || w != 0 || d > 2 {
		t.Errorf("server: %d reads, %d Write calls beside the reply writev, %d deadline calls; want 1, 0, <= 2", r, w, d)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := mc.ReadInto(4096, frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 && !raceEnabled {
		t.Errorf("pooled ReadInto round trip allocates %v objects per op across both ends, want 0", n)
	}
}

// TestMixedReadKindsDoNotAllocate alternates `read` and `read-pages` on one
// connection, the order a fill that gathers a page's written lines puts
// them in: once warm, neither end allocates for either kind. The serve
// loop keeps its Offsets array across requests; a request without offsets
// decodes to nil, so keeping the decoded field instead drops the array at
// every `read`, and the next `read-pages` allocates it again.
func TestMixedReadKindsDoNotAllocate(t *testing.T) {
	mc, node, _, _ := countedRig(t)
	pool := node.PoolBytes()
	for i := range pool[:2*4096] {
		pool[i] = byte(i * 7)
	}
	page := make([]byte, 4096)
	offs := []uint64{0, 1024, 2048, 3072}
	bufs := [][]byte{make([]byte, 576), make([]byte, 576), make([]byte, 576), make([]byte, 576)}
	round := func() {
		if err := mc.ReadInto(4096, page); err != nil {
			t.Fatal(err)
		}
		if err := mc.ReadPagesInto(offs, bufs); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm pools and scratch
	if n := testing.AllocsPerRun(200, round); n != 0 && !raceEnabled {
		t.Errorf("a read and a read-pages on one connection allocate %v objects per pair across both ends, want 0", n)
	}
	if !bytes.Equal(page, pool[4096:8192]) {
		t.Fatal("read returned wrong bytes")
	}
	for i, off := range offs {
		if !bytes.Equal(bufs[i], pool[off:off+576]) {
			t.Fatalf("read-pages span %d returned wrong bytes", i)
		}
	}
}

// TestLargeWriteLogBypassesBuffer ships a ~1 MB log: only the head that
// arrived with the frame header may take the copy through the
// connection buffer, the rest is read from the socket into the log
// region, and every entry lands in the pool.
func TestLargeWriteLogBypassesBuffer(t *testing.T) {
	mc, _, serverReg := wireRig(t)
	lines := 1<<20/cllog.EntrySize(64) + 1 // one-line entries past 1 MB
	entries := make([]cllog.Entry, lines)
	for i := range entries {
		entries[i] = cllog.Entry{RemoteOff: uint64(i) * 64, Data: bytes.Repeat([]byte{byte(i%251 + 1)}, 64)}
	}
	packed := make([]byte, cllog.PackedSize(entries))
	if _, err := cllog.Pack(entries, packed); err != nil {
		t.Fatal(err)
	}
	if len(packed) < 1<<20 {
		t.Fatalf("log is only %d bytes", len(packed))
	}
	if n, err := mc.WriteLogVec(packed[:len(packed)/3], packed[len(packed)/3:]); err != nil || n != lines {
		t.Fatalf("entries=%d err=%v", n, err)
	}
	if got := serverReg.Counter("cluster.memnode.log_bytes").Value(); got != uint64(len(packed)) {
		t.Fatalf("log region received %d bytes, want %d", got, len(packed))
	}
	if got := serverReg.Counter("cluster.memnode.payload_copies").Value(); got > connBufLen {
		t.Fatalf("server copied %d payload bytes, want at most the buffered head (%d)", got, connBufLen)
	}
	page := make([]byte, 64)
	for _, i := range []int{0, 1, lines / 2, lines - 1} {
		if err := mc.ReadInto(uint64(i)*64, page); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, entries[i].Data) {
			t.Fatalf("entry %d did not land", i)
		}
	}
}

// splitReader delivers a byte stream in two reads, cut at split.
type splitReader struct {
	data  []byte
	split int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := len(s.data)
	if s.split > 0 {
		n = s.split
	}
	n = copy(p, s.data[:min(n, len(p))])
	s.data = s.data[n:]
	s.split = max(s.split-n, 0)
	return n, nil
}

// TestFrameDecodeAcrossPartialReads cuts request and response frames at
// every byte of prefix, header and payload — and byte by byte — and
// requires the frame reader to decode each exactly as it decodes the
// whole. The frames are the fuzzers' seeds — a typed refusal of each
// status among them — plus one whose header (a ReadPages offset table) is
// larger than the connection buffer.
func TestFrameDecodeAcrossPartialReads(t *testing.T) {
	offs := make([]uint64, connBufLen/8+50)
	for i := range offs {
		offs[i] = uint64(i) * 4096
	}
	reqs := []*Request{
		{Kind: kindPing, ID: 42},
		{Kind: kindLeaseAcquire, ID: 7, SlabID: 3, Runtime: 99, Length: int(LeaseWriter), Size: uint64(DefaultLeaseTTL)},
		{Kind: kindLeaseFence, Offset: 1 << 20, Size: 4096, Runtime: ^uint64(0), Epoch: ^uint64(0)},
		{Kind: kindWrite, ID: 9, Offset: 64, Addr: "127.0.0.1:7070", Data: bytes.Repeat([]byte{0xC3}, 300)},
		{Kind: kindReadPages, ID: 11, Length: 4096, Offsets: offs},
	}
	for _, req := range reqs {
		whole := encodeRequest(t, req)
		want, err := decodeRequest(whole)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(r io.Reader, how string) {
			in := &frameReader{src: r}
			var got Request
			kind, hdr, payLen, err := in.readHeader()
			if err == nil {
				err = decodeRequestHeader(kind, hdr, &got)
			}
			if err == nil && payLen > 0 {
				got.Data = make([]byte, payLen)
				_, err = in.readPayload(payLen, got.Data)
			}
			if err != nil || !reflect.DeepEqual(got, want) || in.buffered() != 0 {
				t.Fatalf("%s %s: err=%v buffered=%d\n got: %+v\nwant: %+v", req.Kind, how, err, in.buffered(), got, want)
			}
		}
		for k := 1; k < len(whole); k++ {
			decode(&splitReader{data: whole, split: k}, "split")
		}
		decode(iotest.OneByteReader(bytes.NewReader(whole)), "byte by byte")
	}

	resps := append([]Response{{Entries: 3, Epoch: 9, Data: bytes.Repeat([]byte{0x5A}, 4096)}}, refusals()...)
	for _, resp := range resps {
		if resp.Err != nil {
			// What the client decodes: the text and the typed status.
			resp.Err = &RemoteError{Msg: resp.Err.Error(), status: statusOf(resp.Err)}
		}
		whole := encodeResponse(t, &resp)
		for k := 1; k < len(whole); k++ {
			for _, scatter := range []bool{false, true} {
				if scatter && resp.Data == nil {
					continue
				}
				in := &frameReader{src: &splitReader{data: whole, split: k}}
				var got Response
				var recv [][]byte
				page := make([]byte, 4096)
				if scatter {
					recv = [][]byte{page[:100], page[100:]}
				}
				n, _, err := in.readResponse(&got, recv)
				if scatter {
					got.Data = page
				}
				if err != nil || n != len(whole) || !reflect.DeepEqual(got, resp) || in.buffered() != 0 {
					t.Fatalf("response %v split at %d (scatter=%v): n=%d err=%v buffered=%d", resp.Err, k, scatter, n, err, in.buffered())
				}
			}
		}
	}
	// A status past the last code is refused however the frame is cut.
	bad := badStatusFrame(t)
	for k := 1; k < len(bad); k++ {
		if _, _, err := (&frameReader{src: &splitReader{data: bad, split: k}}).readResponse(new(Response), nil); err == nil {
			t.Fatalf("unknown status decoded with the frame split at %d", k)
		}
	}
}

// TestPoolDropsConnWithSurplusBytes: a peer that sends more than the
// frame it owes leaves bytes in the connection buffer; such a
// connection must be closed, never pooled — the surplus would be read as
// the start of the next reply.
func TestPoolDropsConnWithSurplusBytes(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	closed := make(chan struct{})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		in := &frameReader{src: conn}
		if _, _, _, err := in.readHeader(); err != nil {
			return
		}
		var reply bytes.Buffer
		_, _ = writeResponseFrame(&reply, &Response{Epoch: 5})
		reply.WriteString("surplus")
		_, _ = conn.Write(reply.Bytes())
		// The client must hang up rather than park the connection.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == io.EOF {
			close(closed)
		}
	}()
	p := newPool(l.Addr().String(), Transport{MaxRetries: -1})
	defer p.Close()
	resp, err := p.roundTrip(&Request{Kind: kindPing})
	if err != nil || resp.Epoch != 5 {
		t.Fatalf("reply with trailing bytes: resp=%+v err=%v", resp, err)
	}
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 0 {
		t.Fatalf("connection with surplus bytes was pooled (%d idle)", idle)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("connection with surplus bytes was not closed")
	}
}

// TestPooledConnOutlivesItsDeadline: a successful exchange leaves its
// per-attempt deadline armed, so a pooled connection routinely sits idle
// past it; the next request must re-arm before any I/O and be served on
// the same connection.
func TestPooledConnOutlivesItsDeadline(t *testing.T) {
	node := NewMemoryNode(1, 1<<20)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{})
	srv := ServeMemoryNodeOn(node, fl)
	defer srv.Close()
	mc := DialMemoryNodeTransport(srv.Addr(), Transport{RequestTimeout: 40 * time.Millisecond, MaxRetries: -1})
	defer mc.Close()

	buf := make([]byte, 4096)
	if err := mc.ReadInto(0, buf); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // three deadlines' worth of idling
	if err := mc.ReadInto(0, buf); err != nil {
		t.Fatalf("request on a connection idle past its old deadline: %v", err)
	}
	if n := fl.Accepted(); n != 1 {
		t.Fatalf("served over %d connections, want the one pooled connection", n)
	}
}
