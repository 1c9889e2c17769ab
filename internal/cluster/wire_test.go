package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"kona/internal/cllog"
	"kona/internal/telemetry"
)

// buildLog packs one 64-byte cache-line entry targeting pool offset off.
func buildLog(t testing.TB, off uint64, lineBytes int) []byte {
	t.Helper()
	entries := []cllog.Entry{{RemoteOff: off, Data: bytes.Repeat([]byte{3}, lineBytes)}}
	packed := make([]byte, cllog.PackedSize(entries))
	if _, err := cllog.Pack(entries, packed); err != nil {
		t.Fatal(err)
	}
	return packed
}

// countWriter counts bytes without buffering them — lets the frame-size
// edge tests run a maxFrameSize payload without holding two copies.
type countWriter struct{ n int }

func (w *countWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestEmptyPayloadVectors pins the empty-payload conventions: no
// payload, an empty scatter list, and a scatter list of empty segments
// all produce a payLen-0 frame that round-trips, and zero-length
// segments interleaved with real ones contribute nothing.
func TestEmptyPayloadVectors(t *testing.T) {
	cases := [][][]byte{
		nil,
		{},
		{nil},
		{nil, {}, nil},
	}
	for i, segs := range cases {
		var buf bytes.Buffer
		if _, err := writeRequestFrame(&buf, &Request{Kind: kindPing, ID: 7}, segs...); err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		out, err := decodeRequest(buf.Bytes())
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if out.Data != nil {
			t.Fatalf("case %d: empty payload decoded as %d bytes", i, len(out.Data))
		}
	}

	// Zero-length segments among real ones must neither ship bytes nor
	// desync the length accounting.
	var buf bytes.Buffer
	if _, err := writeRequestFrame(&buf, &Request{Kind: kindWrite},
		nil, []byte("ab"), []byte{}, []byte("cd"), nil); err != nil {
		t.Fatal(err)
	}
	out, err := decodeRequest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Data) != "abcd" {
		t.Fatalf("interleaved empty segments corrupted payload: %q", out.Data)
	}
}

// TestPayloadAtMaxFrameSize pins the boundary: exactly maxFrameSize
// encodes and is accepted by the reader; one byte more fails fast on the
// send side before anything hits the wire, and a prefix claiming more is
// rejected by the reader.
func TestPayloadAtMaxFrameSize(t *testing.T) {
	payload := make([]byte, maxFrameSize)
	var w countWriter
	n, err := writeRequestFrame(&w, &Request{Kind: kindWriteLog}, payload)
	if err != nil {
		t.Fatalf("payload at limit rejected: %v", err)
	}
	if n != w.n || n < maxFrameSize+framePrefixLen {
		t.Fatalf("reported %d bytes, wrote %d", n, w.n)
	}

	var w2 countWriter
	if _, err := writeRequestFrame(&w2, &Request{Kind: kindWriteLog}, payload, []byte{0}); err == nil {
		t.Fatal("payload over limit accepted")
	}
	if w2.n != 0 {
		t.Fatalf("oversized frame leaked %d bytes onto the wire", w2.n)
	}

	// A frame prefix claiming an over-limit payload must be rejected
	// before any allocation.
	pre := []byte{frameMagic0, frameMagic1, frameVersion, byte(kindPing), 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, _, err := (&frameReader{src: bytes.NewReader(pre)}).readHeader(); err == nil {
		t.Fatal("length-bomb prefix accepted")
	}
}

// TestLegacyGobPeerRejected checks the version gate: a peer speaking the
// old gob framing fails the magic check with a descriptive error, and a
// kw frame with a different version number names both versions.
func TestLegacyGobPeerRejected(t *testing.T) {
	var legacy bytes.Buffer
	legacy.Write([]byte{0, 0, 0, 200}) // old 4-byte BE length prefix
	if err := gob.NewEncoder(&legacy).Encode(&Request{Kind: kindPing}); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := (&frameReader{src: &legacy}).readHeader()
	if err == nil || !strings.Contains(err.Error(), "does not speak the kw wire protocol") {
		t.Fatalf("legacy gob frame: got %v, want magic-check rejection", err)
	}

	bad := []byte{frameMagic0, frameMagic1, frameVersion + 1, byte(kindPing), 0, 0, 0, 0, 0, 0, 0, 0}
	_, _, _, err = (&frameReader{src: bytes.NewReader(bad)}).readHeader()
	if err == nil || !strings.Contains(err.Error(), "wire version mismatch") {
		t.Fatalf("wrong version: got %v, want version-mismatch rejection", err)
	}

	// End to end: a client whose peer answers in the legacy framing gets
	// the magic-check error back from its round trip.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.CopyN(io.Discard, conn, 1) // wait for the request to start
		var resp bytes.Buffer
		resp.Write([]byte{0, 0, 0, 50})
		_ = gob.NewEncoder(&resp).Encode(&Response{})
		_, _ = conn.Write(resp.Bytes())
	}()
	_, err = roundTripOnce(l.Addr().String(), &Request{Kind: kindPing})
	if err == nil || !strings.Contains(err.Error(), "does not speak the kw wire protocol") {
		t.Fatalf("gob-era peer round trip: got %v, want magic-check rejection", err)
	}
}

// chokeWriter accepts at most limit bytes of each Write and then fails —
// the deterministic form of faultconn's mid-iovec partial write. Like
// faultConn it does not implement io.ReaderFrom, so net.Buffers falls
// back to one Write call per iovec.
type chokeWriter struct {
	w     io.Writer
	limit int
	fed   int
}

func (c *chokeWriter) Write(b []byte) (int, error) {
	if len(b) > c.limit {
		n, _ := c.w.Write(b[:c.limit])
		c.fed += n
		return n, fmt.Errorf("chokewriter: injected partial write")
	}
	n, err := c.w.Write(b)
	c.fed += n
	return n, err
}

// TestPartialVecWriteNoDesync drives a scatter-gather frame into a
// writer that fails mid-iovec (what a faultconn partial write does to a
// net.Buffers fallback loop) and checks both sides fail loudly: the
// writer reports an error with an accurate byte count, and a reader fed
// the truncated prefix reports truncation instead of inventing a frame.
func TestPartialVecWriteNoDesync(t *testing.T) {
	var wire bytes.Buffer
	cw := &chokeWriter{w: &wire, limit: framePrefixLen + 64} // dies inside the first payload segment
	n, err := writeRequestFrame(cw, &Request{Kind: kindWriteLog},
		bytes.Repeat([]byte{1}, 256), bytes.Repeat([]byte{2}, 256))
	if err == nil {
		t.Fatal("mid-iovec partial write reported success")
	}
	if n != cw.fed {
		t.Fatalf("writer reported %d bytes, wire carries %d", n, cw.fed)
	}

	in := &frameReader{src: &wire}
	_, _, payLen, err := in.readHeader()
	if err != nil {
		// The choke landed inside the prefix/header: the reader calls
		// truncation, which is the loud failure we want.
		return
	}
	dst := make([]byte, payLen)
	if _, err := in.readPayload(payLen, dst); err == nil {
		t.Fatal("reader filled a payload the writer never finished")
	}
}

// TestFaultConnPartialWritesEndToEnd runs scatter-gather RPCs through a
// fault listener injecting real mid-frame partial writes and checks the
// retry layer recovers every request with intact payloads — a split
// writev must only ever produce a dead connection, never a desynced one.
func TestFaultConnPartialWritesEndToEnd(t *testing.T) {
	node := NewMemoryNode(1, 1<<20)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{Seed: 42, PartialWriteProb: 0.3})
	srv := ServeMemoryNodeOn(node, fl)
	defer srv.Close()

	mc := DialMemoryNodeTransport(srv.Addr(), Transport{MaxRetries: 25, Seed: 7})
	defer mc.Close()

	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := mc.WriteVec(0, payload[:4096], payload[4096:]); err != nil {
		t.Fatalf("scatter write under partial-write faults: %v", err)
	}
	buf := make([]byte, len(payload))
	for i := 0; i < 25; i++ {
		for j := range buf {
			buf[j] = 0
		}
		if err := mc.ReadInto(0, buf); err != nil {
			t.Fatalf("read %d under partial-write faults: %v", i, err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatalf("read %d returned corrupt data (stream desync?)", i)
		}
	}
	if fl.Faults() == 0 {
		t.Fatal("fault listener injected nothing; test proves nothing")
	}
}

// TestReadPagesIntoScatteredFrames checks a ReadPages reply lands
// correctly when the caller's destination frames are non-contiguous and
// out of order relative to each other in memory.
func TestReadPagesIntoScatteredFrames(t *testing.T) {
	node := NewMemoryNode(1, 1<<20)
	srv, err := ServeMemoryNode(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc := DialMemoryNode(srv.Addr())
	defer mc.Close()

	const page = 512
	offs := []uint64{3 * page, 0 * page, 7 * page, 1 * page}
	want := make([][]byte, len(offs))
	for i, off := range offs {
		want[i] = bytes.Repeat([]byte{byte(0x10 + i)}, page)
		if err := mc.WriteVec(off, want[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Destination frames: disjoint slices of one arena with gaps between
	// them, assigned in reverse so adjacency never accidentally matches
	// the reply's concatenated layout.
	arena := make([]byte, len(offs)*2*page)
	bufs := make([][]byte, len(offs))
	for i := range bufs {
		start := (len(offs) - 1 - i) * 2 * page
		bufs[i] = arena[start : start+page]
	}
	if err := mc.ReadPagesInto(offs, bufs); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], want[i]) {
			t.Fatalf("page %d landed wrong: got %x… want %x…", i, bufs[i][:4], want[i][:4])
		}
	}

	// Shape errors are caught client-side before anything ships.
	if err := mc.ReadPagesInto(offs, bufs[:2]); err == nil {
		t.Fatal("mismatched buffer count accepted")
	}
	if err := mc.ReadPagesInto(nil, nil); err == nil {
		t.Fatal("empty read-pages accepted")
	}
}

// TestOversizedWriteLogDrainsAndAnswers checks the drain path: a
// WriteLog payload larger than the node's log region is refused by the
// payload sink, but the connection stays framed — the server drains the
// body, answers with the error, and keeps serving on the same conn. The
// refused frame counts as an error and is not served.
func TestOversizedWriteLogDrainsAndAnswers(t *testing.T) {
	reg := telemetry.New(0)
	node := NewMemoryNode(1, 1<<20)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeMemoryNodeOnWith(node, inner, reg)
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	big := make([]byte, LogRegionSize+1)
	if _, err := writeRequestFrame(conn, &Request{Kind: kindWriteLog, ID: nextReqID()}, big); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := recvResponse(conn, &resp); err != nil {
		t.Fatalf("oversized log tore the connection: %v", err)
	}
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "log too large") {
		t.Fatalf("got %v, want log-too-large refusal", resp.Err)
	}
	// Same connection must still serve.
	if _, err := writeRequestFrame(conn, &Request{Kind: kindPing, ID: nextReqID()}); err != nil {
		t.Fatal(err)
	}
	if err := recvResponse(conn, &resp); err != nil || resp.Err != nil {
		t.Fatalf("connection desynced after drained payload: %v %v", err, resp.Err)
	}
	c := reg.Snapshot().Counters
	if c["cluster.memnode.errors"] != 1 || c["cluster.memnode.served.write-log"] != 0 || c["cluster.memnode.served.ping"] != 1 {
		t.Fatalf("errors=%d served.write-log=%d served.ping=%d; want 1, 0, 1",
			c["cluster.memnode.errors"], c["cluster.memnode.served.write-log"], c["cluster.memnode.served.ping"])
	}
}

// TestWireTelemetryCounters checks the per-kind tx/rx byte counters and
// the payload_copies counters on both ends: a payload that arrives in
// the connection buffer counts its one copy out of it (WriteLog on the
// server, ReadInto on the client), the server's Read staging counts
// once more, and the legacy client Read counts its staging allocation
// once, not twice.
func TestWireTelemetryCounters(t *testing.T) {
	clientReg := telemetry.New(64)
	serverReg := telemetry.New(64)

	node := NewMemoryNode(1, 1<<20)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeMemoryNodeOnWith(node, inner, serverReg)
	defer srv.Close()
	mc := DialMemoryNodeTransport(srv.Addr(), Transport{Metrics: clientReg})
	defer mc.Close()

	// Zero-copy ship: a packed log in two segments.
	logA := buildLog(t, 0, 64)
	if _, err := mc.WriteLogVec(logA[:len(logA)/2], logA[len(logA)/2:]); err != nil {
		t.Fatal(err)
	}
	// Zero-copy receive into a caller frame.
	frame := make([]byte, 4096)
	if err := mc.ReadInto(0, frame); err != nil {
		t.Fatal(err)
	}

	if got := clientReg.Counter("cluster.rpc.tx_bytes.write-log").Value(); got < uint64(len(logA)) {
		t.Fatalf("write-log tx_bytes %d, want >= payload %d", got, len(logA))
	}
	if got := clientReg.Counter("cluster.rpc.rx_bytes.read").Value(); got < uint64(len(frame)) {
		t.Fatalf("read rx_bytes %d, want >= payload %d", got, len(frame))
	}
	if got := serverReg.Counter("cluster.memnode.rx_bytes.write-log").Value(); got < uint64(len(logA)) {
		t.Fatalf("server write-log rx_bytes %d, want >= payload %d", got, len(logA))
	}
	if got := clientReg.Counter("cluster.rpc.payload_copies").Value(); got != uint64(len(frame)) {
		t.Fatalf("client payload_copies %d, want %d (the fetched page, once)", got, len(frame))
	}
	// The server Read path stages through its pooled buffer (the pool is
	// locked per-access); the log took its one copy out of the
	// connection buffer.
	serverCopies := serverReg.Counter("cluster.memnode.payload_copies").Value()
	if serverCopies != uint64(len(frame)+len(logA)) {
		t.Fatalf("server payload_copies %d, want %d (Read staging + buffered log)", serverCopies, len(frame)+len(logA))
	}

	// Legacy client Read allocates a staging buffer and counts it.
	if _, err := readFrom(mc, 0, 256); err != nil {
		t.Fatal(err)
	}
	if got := clientReg.Counter("cluster.rpc.payload_copies").Value(); got != uint64(len(frame))+256 {
		t.Fatalf("legacy Read staged %d bytes, want 256", got-uint64(len(frame)))
	}
}
