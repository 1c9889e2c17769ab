package cluster

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"
)

// chaosTransport is a retry-heavy wire policy for fault-injection tests:
// tight backoff so tests stay fast, a deep retry budget so seeded fault
// storms cannot exhaust it.
func chaosTransport(seed int64) Transport {
	return Transport{
		DialTimeout:    time.Second,
		RequestTimeout: 2 * time.Second,
		MaxRetries:     12,
		BackoffBase:    500 * time.Microsecond,
		BackoffMax:     10 * time.Millisecond,
		PoolSize:       4,
		Seed:           seed,
	}
}

// registerWithRetry registers a node through a possibly faulty controller
// listener. RegisterNode is not transport-retried (a replay reports
// "already registered"), so the test retries at the application level and
// treats the duplicate error as success.
func registerWithRetry(t *testing.T, cc *ControllerClient, id int, capacity uint64, addr string) {
	t.Helper()
	var err error
	for i := 0; i < 20; i++ {
		err = cc.RegisterNode(id, capacity, addr)
		if err == nil || strings.Contains(err.Error(), "already registered") {
			return
		}
	}
	t.Fatalf("register node %d: %v", id, err)
}

// TestServeKeepsConnectionOpen is the regression test for the old
// one-request-per-connection serve loop: a single raw connection must
// answer an arbitrary number of sequential framed requests.
func TestServeKeepsConnectionOpen(t *testing.T) {
	ctrl := NewController()
	cs, err := ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	conn, err := net.Dial("tcp", cs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		if _, err := writeRequestFrame(conn, &Request{Kind: kindPing, ID: nextReqID()}); err != nil {
			t.Fatalf("request %d: write: %v", i, err)
		}
		var resp Response
		if err := recvResponse(conn, &resp); err != nil {
			t.Fatalf("request %d: read: %v (server closed the conn?)", i, err)
		}
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
}

// TestPooledClientReusesConnections proves the client pool actually
// reuses sockets: many sequential RPCs must ride one accepted connection.
func TestPooledClientReusesConnections(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{}) // no faults: pure accept counter
	node := NewMemoryNode(0, 1<<20)
	ns := ServeMemoryNodeOn(node, fl)
	defer ns.Close()

	mc := DialMemoryNode(ns.Addr())
	defer mc.Close()
	for i := 0; i < 50; i++ {
		if err := mc.WriteVec(uint64(i)*64, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrom(mc, uint64(i)*64, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := fl.Accepted(); got != 1 {
		t.Fatalf("100 RPCs used %d connections, want 1 (pooling broken)", got)
	}
}

// TestRetryThroughFaults drives reads and writes through a memory node
// whose listener drops, delays and truncates I/O; the transport's
// retry/backoff must hide every fault and deliver correct data.
func TestRetryThroughFaults(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{
		Seed:             7,
		DropProb:         0.2,
		DelayProb:        0.2,
		MaxDelay:         2 * time.Millisecond,
		PartialWriteProb: 0.05,
		ResetProb:        0.05,
	})
	node := NewMemoryNode(0, 1<<20)
	ns := ServeMemoryNodeOn(node, fl)
	defer ns.Close()

	mc := DialMemoryNodeTransport(ns.Addr(), chaosTransport(1))
	defer mc.Close()
	for i := 0; i < 60; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 128)
		off := uint64(i) * 256
		if err := mc.WriteVec(off, payload); err != nil {
			t.Fatalf("write %d through faults: %v", i, err)
		}
		got, err := readFrom(mc, off, len(payload))
		if err != nil {
			t.Fatalf("read %d through faults: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %d returned corrupt data", i)
		}
	}
	if fl.Faults() == 0 {
		t.Fatalf("fault listener injected nothing; test proves nothing")
	}
}

// TestAllocSlabDedup sends the same identified AllocSlab request twice —
// the wire-level picture of a retry after a lost response — and requires
// the controller to answer both with the same slab and carve only once.
func TestAllocSlabDedup(t *testing.T) {
	ctrl := NewController()
	if err := ctrl.Register(NewMemoryNode(0, 8<<20)); err != nil {
		t.Fatal(err)
	}
	cs, err := ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	req := &Request{Kind: kindAllocSlab, Size: 1 << 20, Replicas: 1, ID: nextReqID()}
	first, err := roundTripOnce(cs.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := roundTripOnce(cs.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Slabs) != 1 || len(second.Slabs) != 1 {
		t.Fatalf("slab counts: %d, %d", len(first.Slabs), len(second.Slabs))
	}
	if first.Slabs[0].ID != second.Slabs[0].ID || first.Slabs[0].RemoteOff != second.Slabs[0].RemoteOff {
		t.Fatalf("replayed alloc returned a different slab: %+v vs %+v", first.Slabs[0], second.Slabs[0])
	}
	node, _ := ctrl.Node(0)
	if _, used := node.Capacity(); used != 1<<20 {
		t.Fatalf("replayed alloc leaked a carve: used = %d, want %d", used, 1<<20)
	}
}

// TestControllerChaosAllocNoLeak allocates through a controller whose
// listener drops connections mid-RPC. Every allocation must succeed via
// retry, and — thanks to request-ID dedup — the controller must have
// carved exactly the bytes the client was granted, with no orphans.
func TestControllerChaosAllocNoLeak(t *testing.T) {
	ctrl := NewController()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{Seed: 13, DropProb: 0.25, ResetProb: 0.05})
	cs := ServeControllerOn(ctrl, fl)
	defer cs.Close()

	cc := DialControllerTransport(cs.Addr(), chaosTransport(2))
	defer cc.Close()
	registerWithRetry(t, cc, 0, 64<<20, "127.0.0.1:1")

	const n, size = 16, uint64(1 << 20)
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		s, err := allocOne(cc, size)
		if err != nil {
			t.Fatalf("alloc %d through faults: %v", i, err)
		}
		if seen[s.ID] {
			t.Fatalf("alloc %d returned duplicate slab %d", i, s.ID)
		}
		seen[s.ID] = true
	}
	node, _ := ctrl.Node(0)
	if _, used := node.Capacity(); used != uint64(n)*size {
		t.Fatalf("carved %d bytes for %d allocs of %d — retries leaked slabs", used, n, size)
	}
	if fl.Faults() == 0 {
		t.Fatalf("fault listener injected nothing; test proves nothing")
	}
}

// TestControllerBlipPing rides out a listener that resets a fifth of all
// fresh connections — the "controller blip" of §4.5.
func TestControllerBlipPing(t *testing.T) {
	ctrl := NewController()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{Seed: 21, ResetProb: 0.2})
	cs := ServeControllerOn(ctrl, fl)
	defer cs.Close()

	cc := DialControllerTransport(cs.Addr(), chaosTransport(3))
	defer cc.Close()
	for i := 0; i < 40; i++ {
		if err := cc.Ping(); err != nil {
			t.Fatalf("ping %d through blips: %v", i, err)
		}
	}
	if _, err := cc.NodeAddrs(); err != nil {
		t.Fatalf("NodeAddrs through blips: %v", err)
	}
}

// TestFrameCorruptionDoesNotWedgeServer throws malformed framing at a
// server: absurd length prefixes and truncated frames must only cost the
// offending connection.
func TestFrameCorruptionDoesNotWedgeServer(t *testing.T) {
	ctrl := NewController()
	cs, err := ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	for _, raw := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},       // 4GB frame announcement
		{0x00, 0x00, 0x00, 0x00},       // zero-length frame
		{0x00, 0x00, 0x01, 0x00, 0xAB}, // truncated: promises 256 bytes, sends 1
		[]byte("this is not a frame at all"),
	} {
		conn, err := net.Dial("tcp", cs.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	cc := DialController(cs.Addr())
	defer cc.Close()
	if err := cc.Ping(); err != nil {
		t.Fatalf("server wedged after corrupt frames: %v", err)
	}
}

// TestClientClose verifies a closed client fails fast instead of dialing.
func TestClientClose(t *testing.T) {
	ctrl := NewController()
	cs, err := ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cc := DialController(cs.Addr())
	if err := cc.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cc.Ping(); err == nil {
		t.Fatal("ping on closed client succeeded")
	}
}
