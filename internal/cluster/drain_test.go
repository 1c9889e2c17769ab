package cluster

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// TestMemnodeGracefulDrain exercises the daemons' SIGTERM path: Shutdown
// must wake idle connections, refuse new ones, and wait for a request
// already past its frame header — even one whose payload has not fully
// arrived — instead of tearing it mid-RPC.
func TestMemnodeGracefulDrain(t *testing.T) {
	node := NewMemoryNode(0, 1<<20)
	srv, err := ServeMemoryNode(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Idle connection, parked at a frame boundary after one ping.
	idle, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := writeRequestFrame(idle, &Request{Kind: kindPing}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := recvResponse(idle, &resp); err != nil {
		t.Fatal(err)
	}

	// Busy connection: a write RPC sent up to, but not including, its
	// last 4 payload bytes — the server is blocked reading the payload.
	busy, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	payload := []byte("drain-payload")
	var frame bytes.Buffer
	if _, err := writeRequestFrame(&frame, &Request{Kind: kindWrite, Offset: 64}, payload); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	if _, err := busy.Write(raw[:len(raw)-4]); err != nil {
		t.Fatal(err)
	}
	// Let the server consume the frame header and mark the conn busy.
	time.Sleep(50 * time.Millisecond)

	drained := make(chan int, 1)
	go func() { drained <- srv.Shutdown(5 * time.Second) }()
	time.Sleep(50 * time.Millisecond) // drain is now in flight

	// New connections must be refused mid-drain.
	if c, err := net.DialTimeout("tcp", srv.Addr(), 200*time.Millisecond); err == nil {
		c.SetReadDeadline(time.Now().Add(time.Second))
		if _, rerr := c.Read(make([]byte, 1)); rerr == nil {
			t.Error("new connection served during drain")
		}
		c.Close()
	}

	// Deliver the rest of the in-flight write; it must be answered.
	if _, err := busy.Write(raw[len(raw)-4:]); err != nil {
		t.Fatalf("completing in-flight write: %v", err)
	}
	busy.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp = Response{}
	if err := recvResponse(busy, &resp); err != nil {
		t.Fatalf("in-flight write during drain: %v", err)
	}
	if resp.Err != nil {
		t.Fatalf("in-flight write during drain answered %v", resp.Err)
	}

	n := <-drained
	if n != 2 {
		t.Errorf("drained %d connections, want 2", n)
	}

	// The acknowledged write must have landed in the pool.
	got := make([]byte, len(payload))
	if err := node.ReadAt(64, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("pool holds %q, want %q", got, payload)
	}

	// Both connections are closed once the drain completes.
	idle.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Error("idle connection still open after drain")
	}
	busy.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := busy.Read(make([]byte, 1)); err == nil {
		t.Error("busy connection still open after drain")
	}
}

// TestControllerGracefulDrain covers the controller daemon's half of the
// same protocol: idle connections wake and close, the listener stops.
func TestControllerGracefulDrain(t *testing.T) {
	cs, err := ServeController(NewController(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	conn, err := net.Dial("tcp", cs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := writeRequestFrame(conn, &Request{Kind: kindPing}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := recvResponse(conn, &resp); err != nil {
		t.Fatal(err)
	}

	if n := cs.Shutdown(time.Second); n != 1 {
		t.Errorf("drained %d connections, want 1", n)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after drain")
	}
	if _, err := net.DialTimeout("tcp", cs.Addr(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after drain")
	}
}
