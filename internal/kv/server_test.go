package kv

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"kona/internal/telemetry"
)

// startServer brings up a kvd server on a loopback listener over an
// in-process simulated rack.
func startServer(t *testing.T, reg *telemetry.Registry) (*Server, string) {
	t.Helper()
	s := NewServer(NewStore(simRuntime(t, 4<<20), Config{Shards: 8, Metrics: reg}), reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, l.Addr().String()
}

func TestServerRoundTrip(t *testing.T) {
	reg := telemetry.New(0)
	_, addr := startServer(t, reg)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, ok, err := c.Get("nothing"); err != nil || ok {
		t.Fatalf("get missing = %t, %v", ok, err)
	}
	if err := c.Set("greeting", 99, []byte("hello, rack")); err != nil {
		t.Fatal(err)
	}
	val, flags, ok, err := c.Get("greeting")
	if err != nil || !ok || string(val) != "hello, rack" || flags != 99 {
		t.Fatalf("get = %q flags %d ok %t err %v", val, flags, ok, err)
	}
	if ok, err := c.Delete("greeting"); err != nil || !ok {
		t.Fatalf("delete = %t, %v", ok, err)
	}
	if ok, err := c.Delete("greeting"); err != nil || ok {
		t.Fatalf("re-delete = %t, %v", ok, err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"uptime", "cmd_total", "curr_items", "get_hits", "evictions"} {
		if _, present := st[want]; !present {
			t.Errorf("stats missing %q (got %v)", want, st)
		}
	}
	if st["cmd_set"] != "1" || st["get_hits"] != "1" || st["get_misses"] != "1" {
		t.Errorf("stats counters off: %v", st)
	}

	// Latency histograms observed traffic.
	snap := reg.Snapshot()
	if snap.Histograms["kv.get.latency"].Count == 0 || snap.Histograms["kv.set.latency"].Count == 0 {
		t.Error("server latency histograms empty")
	}
}

// TestServerProtocolErrorsOverWire drives raw protocol at the server:
// recoverable errors answer and keep the connection, quit ends it.
func TestServerProtocolErrorsOverWire(t *testing.T) {
	reg := telemetry.New(0)
	_, addr := startServer(t, reg)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	send := func(s string) string {
		t.Helper()
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading reply to %q: %v", s, err)
		}
		return strings.TrimRight(line, "\r\n")
	}

	if got := send("frobnicate\r\n"); got != "ERROR" {
		t.Fatalf("unknown verb answered %q", got)
	}
	if got := send("set k 0 0\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad set answered %q", got)
	}
	// The connection survived both errors.
	if got := send("set k 1 0 2\r\nok\r\n"); got != "STORED" {
		t.Fatalf("set after errors answered %q", got)
	}
	if got := send("version\r\n"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("version answered %q", got)
	}
	if reg.Snapshot().Counters["kv.bad_commands"] != 2 {
		t.Errorf("bad_commands = %d, want 2", reg.Snapshot().Counters["kv.bad_commands"])
	}
}

// TestServerGracefulDrain checks the drain contract: a request already
// in flight when Shutdown starts completes and is acknowledged; idle
// connections close promptly; new connections are refused.
func TestServerGracefulDrain(t *testing.T) {
	reg := telemetry.New(0)
	s, addr := startServer(t, reg)

	// Idle connection: sits between commands, must be closed by drain.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	// Busy connection: command line sent, payload withheld until after
	// Shutdown begins — the server must wait for it, serve it, ack it.
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if _, err := busy.Write([]byte("set slow 0 0 7\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server read the command line

	var wg sync.WaitGroup
	wg.Add(1)
	var drained int
	go func() {
		defer wg.Done()
		drained = s.Shutdown(5 * time.Second)
	}()
	time.Sleep(50 * time.Millisecond) // Shutdown is now in its grace wait

	// Deliver the payload mid-drain; the ack must still come back.
	if _, err := busy.Write([]byte("payload\r\n")); err != nil {
		t.Fatal(err)
	}
	busy.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(busy).ReadString('\n')
	if err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
		t.Fatalf("in-flight set during drain answered %q, %v", line, err)
	}
	wg.Wait()
	if drained != 2 {
		t.Errorf("drained %d conns, want 2", drained)
	}

	// The drained server refuses new work.
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		if _, rerr := c.Read(make([]byte, 1)); rerr == nil {
			t.Error("post-drain connection served")
		}
		c.Close()
	}

	// The idle conn is dead too.
	idle.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Error("idle conn still open after drain")
	}

	// And the store is intact: the mid-drain write landed.
	val, _, _, ok, err := s.store.Get(s.store.Clock(), "slow", nil)
	if err != nil || !ok || string(val) != "payload" {
		t.Fatalf("mid-drain write lost: %q %t %v", val, ok, err)
	}
}

// TestTextProtocolWithoutGarbage pins the protocol's allocation budget
// over a real socket, counted across client, server and store (FMem
// hits: the working set fits the runtime's cache): a get allocates only
// the value Client.Get hands back, and an overwriting set nothing — the
// key is looked up from the command line's bytes, the existing key's
// LRU element is reused, no line is turned into a string.
func TestTextProtocolWithoutGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	_, addr := startServer(t, telemetry.New(0))
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const key = "a-key-longer-than-the-32-byte-stack-temporaries"
	val := make([]byte, 512)
	if err := c.Set(key, 1234567, val); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if got, flags, ok, err := c.Get(key); err != nil || !ok || flags != 1234567 || len(got) != len(val) {
			t.Fatalf("get = %d bytes flags %d ok %t err %v", len(got), flags, ok, err)
		}
	}); n > 1 {
		t.Errorf("get allocates %v objects per op, want 1 (the returned value)", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Set(key, 7, val); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("overwriting set allocates %v objects per op, want 0", n)
	}
}
