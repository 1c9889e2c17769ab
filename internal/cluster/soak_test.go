package cluster

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestSoakNoLostWrites runs a controller and two memory nodes — every
// listener injecting 1% connection drops and up to 5ms of jitter — under
// a few seconds of concurrent write/read traffic, and requires that every
// acknowledged write is visible afterwards: zero lost writes. This is the
// §4.5 "network delays and failures" scenario as an end-to-end soak over
// real sockets. Skipped with -short.
func TestSoakNoLostWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}

	faults := FaultConfig{
		Seed:      1701,
		DropProb:  0.01,
		DelayProb: 0.30,
		MaxDelay:  5 * time.Millisecond,
	}
	listen := func(seedShift int64) *FaultListener {
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := faults
		cfg.Seed += seedShift
		return NewFaultListener(inner, cfg)
	}

	ctrl := NewController()
	cs := ServeControllerOn(ctrl, listen(0))
	defer cs.Close()

	tr := chaosTransport(99)
	cc := DialControllerTransport(cs.Addr(), tr)
	defer cc.Close()

	nodeListeners := make([]*FaultListener, 2)
	for i := 0; i < 2; i++ {
		nodeListeners[i] = listen(int64(i) + 1)
		node := NewMemoryNode(i, 64<<20)
		ns := ServeMemoryNodeOn(node, nodeListeners[i])
		defer ns.Close()
		registerWithRetry(t, cc, i, 64<<20, ns.Addr())
	}

	// One slab per worker; workers only touch their own slab, so server
	// pool accesses never overlap across connections.
	const (
		workers   = 4
		opsPerWkr = 400
		chunk     = 256
	)
	type region struct {
		client *MemoryNodeClient
		off    uint64
		size   uint64
	}
	clients := map[string]*MemoryNodeClient{}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	addrs, err := cc.NodeAddrs()
	if err != nil {
		t.Fatal(err)
	}
	regions := make([]region, workers)
	for i := range regions {
		s, err := allocOne(cc, 1<<20)
		if err != nil {
			t.Fatalf("soak alloc %d: %v", i, err)
		}
		addr := addrs[s.Node]
		if clients[addr] == nil {
			clients[addr] = DialMemoryNodeTransport(addr, tr)
		}
		regions[i] = region{client: clients[addr], off: s.RemoteOff, size: s.Size}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := regions[w]
			model := make([]byte, r.size)
			written := map[uint64]bool{}
			// Deterministic per-worker offset walk; contents encode
			// (worker, op) so misdirected writes are detectable.
			for op := 0; op < opsPerWkr; op++ {
				off := uint64((op * 7919) % int(r.size-chunk))
				off &^= 63
				payload := bytes.Repeat([]byte{byte(w*opsPerWkr+op) | 1}, chunk)
				if err := r.client.WriteVec(r.off+off, payload); err != nil {
					errCh <- fmt.Errorf("worker %d op %d: write: %w", w, op, err)
					return
				}
				copy(model[off:], payload)
				written[off] = true
				if op%8 == 0 {
					got, err := readFrom(r.client, r.off+off, chunk)
					if err != nil {
						errCh <- fmt.Errorf("worker %d op %d: read: %w", w, op, err)
						return
					}
					if !bytes.Equal(got, model[off:off+chunk]) {
						errCh <- fmt.Errorf("worker %d op %d: inline readback diverged at +%d", w, op, off)
						return
					}
				}
			}
			// Final audit: every acknowledged write must be visible.
			lost := 0
			for off := range written {
				got, err := readFrom(r.client, r.off+off, chunk)
				if err != nil {
					errCh <- fmt.Errorf("worker %d: audit read at +%d: %w", w, off, err)
					return
				}
				if !bytes.Equal(got, model[off:off+uint64(chunk)]) {
					lost++
				}
			}
			if lost > 0 {
				errCh <- fmt.Errorf("worker %d: %d lost writes", w, lost)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	injected := 0
	for _, fl := range nodeListeners {
		injected += fl.Faults()
	}
	if injected == 0 {
		t.Fatalf("soak injected no faults; nothing was proven")
	}
	t.Logf("soak: %d ops, %d faults injected, 0 lost writes",
		workers*opsPerWkr, injected)
}
