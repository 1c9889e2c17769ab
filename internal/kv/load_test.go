package kv

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// staleOnceServer is a memcached text-protocol server over a map that
// answers every get with the key's latest value except one: the first get,
// after staleAfter gets, of a key that has an earlier value answers with
// that earlier value.
type staleOnceServer struct {
	mu         sync.Mutex
	vals       map[string][][]byte // key -> values set, oldest first
	gets       int
	staleAfter int
	served     bool // the stale answer has gone out
}

func (s *staleOnceServer) serve(conn net.Conn) {
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 5 && f[0] == "set":
			n, _ := strconv.Atoi(f[4])
			val := make([]byte, n+2)
			if _, err := io.ReadFull(br, val); err != nil {
				return
			}
			s.mu.Lock()
			s.vals[f[1]] = append(s.vals[f[1]], val[:n])
			s.mu.Unlock()
			bw.WriteString("STORED\r\n")
		case len(f) == 2 && f[0] == "get":
			s.mu.Lock()
			s.gets++
			vals := s.vals[f[1]]
			var val []byte
			if len(vals) > 0 {
				val = vals[len(vals)-1]
			}
			if len(vals) > 1 && s.gets > s.staleAfter && !s.served {
				val, s.served = vals[len(vals)-2], true
			}
			s.mu.Unlock()
			if val != nil {
				fmt.Fprintf(bw, "VALUE %s 0 %d\r\n%s\r\n", f[1], len(val), val)
			}
			bw.WriteString("END\r\n")
		default: // quit
			return
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// TestLoadChecksEveryGet: a get in the middle of the run that answers a
// key's previous value is counted stale, though the verify pass after the
// run reads every key current.
func TestLoadChecksEveryGet(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &staleOnceServer{vals: map[string][][]byte{}, staleAfter: 500}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.serve(conn)
		}
	}()
	eng, err := NewEngine(LoadConfig{
		Workload: WorkloadConfig{
			Keys:         200,
			ZipfS:        1.1,
			ReadFraction: 0.5,
			ValueSizes:   []SizeClass{{Bytes: 64, Weight: 1}},
			RatePerSec:   200_000,
			Seed:         1,
		},
		Conns:  2,
		Ops:    4000,
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	served := srv.served
	srv.mu.Unlock()
	if !served {
		t.Fatal("the server never answered a stale value: the test checks nothing")
	}
	if res.Errors != 0 || res.VerifiedKeys == 0 || res.Missing != 0 {
		t.Fatalf("%d errors, %d keys verified, %d missing", res.Errors, res.VerifiedKeys, res.Missing)
	}
	if res.Stale != 1 || res.Torn != 0 {
		t.Errorf("%d stale, %d torn reads, want 1 stale and 0 torn", res.Stale, res.Torn)
	}
}
