package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"
)

// The reference kernel is the benchmark's yardstick: a bare loopback
// TCP echo that shares nothing with the system under test but the
// process, the P and the host. The host steals time in bursts; a burst
// slows this kernel and the workload by the same factor, so a cost
// expressed in reference round trips repeats where the same cost in
// microseconds does not (bench/README.md, "Why reference round trips").
//
// The kernel is sampled *inside* the stretch of work it normalises: a
// burst of refBurst round trips after every refEvery ops. Bracketing a
// 250 ms window with two 20 ms kernel runs was tried first and did not
// track it — the bursts are shorter than a window, so the window's
// throughput and its neighbours' round trip were nearly uncorrelated.
const (
	refReqBytes   = 64
	refReplyBytes = 640
	// One round trip per four ops: ~2 000 per window, 5–8% of its time.
	refEvery = 64
	refBurst = 16
)

type refKernel struct {
	l      net.Listener
	c      net.Conn
	served chan error // the echo goroutine's exit status
	req    [refReqBytes]byte
	reply  [refReplyBytes]byte
	seq    uint64
}

func newRefKernel() (*refKernel, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ref kernel: %w", err)
	}
	r := &refKernel{l: l, served: make(chan error, 1)}
	go func() { r.served <- refServe(l) }()
	r.c, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		<-r.served
		return nil, fmt.Errorf("ref kernel: %w", err)
	}
	return r, nil
}

// refServe answers each 64 B request with a 640 B reply: the request's
// sequence number, a pattern, and a CRC32 over both in the last 4 bytes.
func refServe(l net.Listener) error {
	conn, err := l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) { // closed before any round trip
			return nil
		}
		return err
	}
	defer conn.Close()
	var req [refReqBytes]byte
	var reply [refReplyBytes]byte
	for i := 8; i < refReplyBytes-4; i++ {
		reply[i] = byte(i * 131)
	}
	for {
		if _, err := io.ReadFull(conn, req[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		copy(reply[:8], req[:8])
		binary.LittleEndian.PutUint32(reply[refReplyBytes-4:], crc32.ChecksumIEEE(reply[:refReplyBytes-4]))
		if _, err := conn.Write(reply[:]); err != nil {
			return err
		}
	}
}

// run does n checked round trips and returns the time they took.
func (r *refKernel) run(n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		r.seq++
		binary.LittleEndian.PutUint64(r.req[:8], r.seq)
		if _, err := r.c.Write(r.req[:]); err != nil {
			return 0, fmt.Errorf("ref kernel: %w", err)
		}
		if _, err := io.ReadFull(r.c, r.reply[:]); err != nil {
			return 0, fmt.Errorf("ref kernel: %w", err)
		}
		body := r.reply[:refReplyBytes-4]
		if binary.LittleEndian.Uint64(body[:8]) != r.seq ||
			crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(r.reply[refReplyBytes-4:]) {
			return 0, fmt.Errorf("ref kernel: reply %d failed its check", r.seq)
		}
	}
	return time.Since(start), nil
}

// refMeter accumulates the kernel bursts interleaved with one stretch
// of work (a window, a probe step).
type refMeter struct {
	total time.Duration
	n     int
}

// tick is called after every unit of work; every refEvery-th call runs
// a burst.
func (m *refMeter) tick(r *refKernel, i int) error {
	if i%refEvery != refEvery-1 {
		return nil
	}
	d, err := r.run(refBurst)
	m.total += d
	m.n += refBurst
	return err
}

// rtt is the mean reference round trip over the stretch, in seconds.
func (m *refMeter) rtt() float64 { return m.total.Seconds() / float64(m.n) }

// close stops the echo goroutine and waits for it.
func (r *refKernel) close() error {
	r.c.Close()
	r.l.Close()
	return <-r.served
}
