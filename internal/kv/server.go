package kv

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kona/internal/telemetry"
)

// Server serves the memcached text protocol over TCP on top of a Store.
// One goroutine per connection; the store's shard locks are the
// concurrency limit, exactly like application goroutines on the data
// path (DESIGN.md §9).
type Server struct {
	store *Store
	l     net.Listener
	m     serverMetrics
	start time.Time

	mu       sync.Mutex
	conns    map[net.Conn]*connState
	draining bool
	wg       sync.WaitGroup // live connection goroutines

	served atomic.Uint64 // commands answered (stats: cmd_total)
}

// connState tracks whether a connection has a command in flight. busy
// is written under Server.mu: Shutdown's wake-idle-readers deadline and
// serveConn's per-request deadline are serialized by the same lock, so
// a drain can never clobber the deadline protecting an in-flight
// request.
type connState struct {
	busy bool
}

type serverMetrics struct {
	getLat, setLat, delLat *telemetry.Histogram
	conns                  *telemetry.Gauge
	badCommands            *telemetry.Counter
}

// NewServer wires a server to a store. reg receives per-op wall-clock
// latency histograms (kv.get.latency, kv.set.latency, kv.delete.latency,
// nanoseconds) and a connection gauge; nil disables.
func NewServer(store *Store, reg *telemetry.Registry) *Server {
	return &Server{
		store: store,
		m: serverMetrics{
			getLat:      reg.Histogram("kv.get.latency"),
			setLat:      reg.Histogram("kv.set.latency"),
			delLat:      reg.Histogram("kv.delete.latency"),
			conns:       reg.Gauge("kv.conns"),
			badCommands: reg.Counter("kv.bad_commands"),
		},
		conns: make(map[net.Conn]*connState),
		start: time.Now(),
	}
}

// Serve accepts connections on l until Shutdown (or Close). It blocks;
// run it in a goroutine. The error is nil on clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("kv: server already shut down")
	}
	s.l = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = &connState{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Addr returns the listen address, once Serve has been called.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.l == nil {
		return ""
	}
	return s.l.Addr().String()
}

// Shutdown drains gracefully: stop accepting, wake connections idle at
// a command boundary, let in-flight commands finish, then close
// everything. It returns the number of connections that were drained
// cleanly; connections still busy past the grace period are closed hard.
func (s *Server) Shutdown(grace time.Duration) int {
	s.mu.Lock()
	s.draining = true
	if s.l != nil {
		s.l.Close()
	}
	// Wake every reader blocked waiting for the *next* command. Busy
	// connections are left alone: their in-flight request runs under its
	// own deadline (armed under this same lock), finishes, and the conn
	// loop exits on the draining flag.
	for c, cs := range s.conns {
		if !cs.busy {
			c.SetReadDeadline(time.Now())
		}
	}
	n := len(s.conns)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return n
}

// Close tears the server down immediately (tests; production paths use
// Shutdown).
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	if s.l != nil {
		s.l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) removeConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	s.m.conns.Dec()
	s.wg.Done()
}

// reqDeadline bounds one command's parse+serve once its first line has
// arrived, so a drain is never hostage to a half-sent data block.
const reqDeadline = 30 * time.Second

func (s *Server) serveConn(conn net.Conn) {
	defer s.removeConn(conn)
	s.m.conns.Inc()
	s.mu.Lock()
	cs := s.conns[conn]
	s.mu.Unlock()
	if cs == nil { // raced with Close
		return
	}
	br := bufio.NewReaderSize(conn, 16<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)
	var cmd command
	var valBuf []byte
	// A command is in flight: mark the conn busy and give the request its
	// own deadline, under the same lock Shutdown uses, so a concurrent
	// drain cannot cut it off mid-payload. Built once: a closure per
	// command would be garbage per command.
	armed := func() {
		s.mu.Lock()
		cs.busy = true
		conn.SetReadDeadline(time.Now().Add(reqDeadline))
		s.mu.Unlock()
	}
	for {
		if err := readCommand(br, &cmd, armed); err != nil {
			// Timeouts at a command boundary are the drain wake-up (or a
			// dead peer); framing errors, EOF and quit drop the conn.
			if !s.answerClientError(bw, err) {
				return
			}
			continue
		}
		if !s.serveCommand(bw, &cmd, &valBuf) {
			return
		}
		s.served.Add(1)
		// Back to idle, under the lock: a Shutdown either already flipped
		// draining (we exit) or runs after us and sees busy=false, waking
		// the next read with its immediate deadline.
		s.mu.Lock()
		cs.busy = false
		conn.SetReadDeadline(time.Time{})
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
	}
}

// answerClientError answers a recoverable protocol error on the wire and
// reports whether the connection can carry on. It is its own function so
// that the errors.As target escapes only when a command has failed.
func (s *Server) answerClientError(bw *bufio.Writer, err error) bool {
	var cerr *clientError
	if !errors.As(err, &cerr) {
		return false
	}
	s.m.badCommands.Inc()
	if cerr.msg == "" {
		writeLine(bw, "ERROR")
	} else {
		writeLine(bw, "CLIENT_ERROR "+cerr.msg)
	}
	return bw.Flush() == nil
}

// serveCommand executes one parsed command and writes its response;
// false means the connection is beyond saving.
func (s *Server) serveCommand(bw *bufio.Writer, cmd *command, valBuf *[]byte) bool {
	now := s.store.Clock()
	start := time.Now()
	switch cmd.op {
	case "get":
		for _, key := range cmd.keys {
			val, flags, _, ok, err := s.store.GetBytes(now, key, *valBuf)
			if err != nil {
				// Corrupt or unreachable entries answer as a miss after
				// the error is counted: memcached semantics, the client
				// repopulates.
				continue
			}
			if ok {
				*valBuf = val
				writeValue(bw, key, flags, val)
			}
		}
		writeLine(bw, "END")
		s.m.getLat.Observe(time.Since(start).Nanoseconds())
	case "set":
		_, err := s.store.SetBytes(now, cmd.keys[0], cmd.data, cmd.flags)
		s.m.setLat.Observe(time.Since(start).Nanoseconds())
		if cmd.noreply {
			break
		}
		switch {
		case err == nil:
			writeLine(bw, "STORED")
		case errors.Is(err, ErrTooLarge):
			writeLine(bw, "SERVER_ERROR object too large for cache")
		default:
			writeLine(bw, "SERVER_ERROR "+err.Error())
		}
	case "delete":
		_, ok, _ := s.store.Delete(now, string(cmd.keys[0]))
		s.m.delLat.Observe(time.Since(start).Nanoseconds())
		if cmd.noreply {
			break
		}
		if ok {
			writeLine(bw, "DELETED")
		} else {
			writeLine(bw, "NOT_FOUND")
		}
	case "stats":
		s.writeStats(bw)
	case "version":
		writeLine(bw, "VERSION kona-kvd/1")
	}
	return bw.Flush() == nil
}

// writeStats answers the stats command: store counters plus enough
// process state to debug a load run from a telnet session.
func (s *Server) writeStats(bw *bufio.Writer) {
	st := s.store.Stats()
	s.mu.Lock()
	nconns := len(s.conns)
	s.mu.Unlock()
	writeStat(bw, "pid", os.Getpid())
	writeStat(bw, "uptime", int64(time.Since(s.start).Seconds()))
	writeStat(bw, "curr_connections", nconns)
	writeStat(bw, "cmd_total", s.served.Load())
	writeStat(bw, "curr_items", st.Keys)
	writeStat(bw, "bytes", st.LiveBytes)
	writeStat(bw, "malloc_chunks", st.Chunks)
	writeStat(bw, "get_hits", st.Hits)
	writeStat(bw, "get_misses", st.Misses)
	writeStat(bw, "cmd_set", st.Sets)
	writeStat(bw, "cmd_delete", st.Deletes)
	writeStat(bw, "evictions", st.Evictions)
	writeStat(bw, "corrupt_records", st.Corrupt)
	writeStat(bw, "goroutines", runtime.NumGoroutine())
	writeLine(bw, "END")
}

// RunSyncLoop drains the store's cache-line log every interval until
// stop closes — the kvd daemon's background writeback pump. Errors are
// reported through errf (ErrRemoteUnavailable during an outage is
// normal and retried next tick).
func (s *Server) RunSyncLoop(interval time.Duration, stop <-chan struct{}, errf func(error)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if _, err := s.store.Sync(s.store.Clock()); err != nil && errf != nil {
				errf(fmt.Errorf("kv: background sync: %w", err))
			}
		}
	}
}
