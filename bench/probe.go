package main

import (
	"fmt"
	"time"

	"kona"
	"kona/internal/cllog"
	"kona/internal/cluster"
)

// probe is the idle-rack measurement of what one RPC costs outside the
// memnode: client codec, syscalls, loopback and the two goroutine
// wake-ups. The runtime's own connections cannot be timed from the
// benchmark's files, so the traced pass charges each RPC it counts this
// much wire time; what is left of a runtime call is the runtime's.
type probe struct {
	// wireRel is round trip − residence per RPC class, in reference
	// round trips.
	wireRel [nClass]float64
}

const (
	probeRoundTrips = 1000
	probePages      = 4        // pages per ReadPages, a multi-page record's worth
	probeLogEntries = 64       // 1 KB entries per WriteLog: one flush threshold
	probeRegion     = 64 << 10 // top of memnode 0's pool, scribbled on by WriteLog
)

func runProbe(r *rack, rec *recorder, ref *refKernel) (probe, error) {
	var pr probe
	// The WriteLog probe writes real bytes; they must land where no slab
	// lives.
	node, ok := r.dir.Node(0)
	if !ok {
		return pr, fmt.Errorf("memnode 0 is not registered")
	}
	if total, used := node.Capacity(); used+probeRegion > total {
		return pr, fmt.Errorf("memnode 0 has %d of %d bytes carved: no room for the probe region", used, total)
	}
	mc := cluster.DialMemoryNode(r.nodeSrvs[0].Addr())
	defer mc.Close()
	cc := cluster.DialController(r.ctrl.Addr())
	defer cc.Close()

	page := make([]byte, kona.PageSize)
	offsets := make([]uint64, probePages)
	bufs := make([][]byte, probePages)
	for i := range bufs {
		offsets[i] = uint64(i) * 2 * kona.PageSize
		bufs[i] = make([]byte, kona.PageSize)
	}
	entries := make([]cllog.Entry, probeLogEntries)
	for i := range entries {
		entries[i] = cllog.Entry{RemoteOff: r.nodeBytes - probeRegion + uint64(i)*1024, Data: page[:1024]}
	}
	packed := make([]byte, cllog.PackedSize(entries))
	if _, err := cllog.Pack(entries, packed); err != nil {
		return pr, err
	}

	steps := [classOther]func() error{
		classRead:      func() error { return mc.ReadInto(0, page) },
		classReadPages: func() error { return mc.ReadPagesInto(offsets, bufs) },
		classWriteLog: func() error {
			n, err := mc.WriteLogVec(packed)
			if err == nil && n != probeLogEntries {
				err = fmt.Errorf("write-log applied %d of %d entries", n, probeLogEntries)
			}
			return err
		},
		classCtrl: func() error { _, err := cc.Epoch(); return err },
	}
	for class, step := range steps {
		if err := step(); err != nil { // dial outside the timed loop
			return pr, err
		}
		rec.resetSums()
		if class < classCtrl {
			rec.setLearn(class)
		}
		rec.on.Store(true)
		var meter refMeter
		start := time.Now()
		for i := 0; i < probeRoundTrips; i++ {
			if err := step(); err != nil {
				return pr, err
			}
			if err := meter.tick(ref, i); err != nil {
				return pr, err
			}
		}
		total := time.Since(start) - meter.total
		rec.on.Store(false)
		rec.setLearn(-1)
		sums := rec.takeSums()
		if n := sums.resN[rtNone][class]; n < probeRoundTrips-1 {
			return pr, fmt.Errorf("probe %s: %d residence spans for %d round trips", classNames[class], n, probeRoundTrips)
		}
		wire := (total - sums.resT[rtNone][class]) / probeRoundTrips
		pr.wireRel[class] = wire.Seconds() / meter.rtt()
	}
	// An RPC of no probed kind (a health ping) is small both ways, like a
	// controller call.
	pr.wireRel[classOther] = pr.wireRel[classCtrl]
	return pr, nil
}
