package core

import (
	"fmt"

	"kona/internal/cluster"
	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/rdma"
	"kona/internal/simclock"
)

// EvictionBench drives the Eviction Handler directly with synthetic
// victims — the §6.4 microbenchmark: `pages` pages, each carrying the
// given dirty bitmap, pushed through the cache-line log to the remote
// host. It returns the total eviction-path virtual time, the Fig 11c
// breakdown, and the eviction counters.
//
// The remote side really receives the data: each flush lands in the
// memory node's log region and is scattered by the Cache-line Log
// Receiver, whose acknowledgment timing feeds the AckWait slice.
func EvictionBench(ctrl *cluster.Controller, cfg Config, pages int, dirty mem.LineBitmap) (simclock.Duration, Breakdown, EvictStats, error) {
	cfg = cfg.withDefaults()
	rm := newResourceManager(cfg, newSimLinks(ctrl, 0), localControl{ctrl})
	ev := newEvictor(rm, cfg)

	if !dirty.Any() {
		return 0, Breakdown{}, EvictStats{}, fmt.Errorf("core: eviction bench needs at least one dirty line")
	}
	base, err := rm.Malloc(uint64(pages) * mem.PageSize)
	if err != nil {
		return 0, Breakdown{}, EvictStats{}, err
	}
	data := make([]byte, mem.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	var now simclock.Duration
	for p := 0; p < pages; p++ {
		now, err = ev.EvictPage(now, fpga.Victim{
			Base:  base + mem.Addr(p*mem.PageSize),
			Data:  data,
			Dirty: dirty,
		})
		if err != nil {
			return now, ev.Breakdown(), ev.Stats(), err
		}
	}
	now, err = ev.Flush(now)
	return now, ev.Breakdown(), ev.Stats(), err
}

// EvictionBenchSG runs the same microbenchmark through the NIC's
// scatter-gather path instead of the cache-line log: per page, one gather
// write collects the dirty segments (no local copy) into the node's log
// region, which the receiver still has to scatter. The paper tried this
// and found it "consistently worse than Kona ... due to inefficiencies in
// gathering many different entries" (§6.4); this bench reproduces that
// comparison for the ablation experiment.
func EvictionBenchSG(ctrl *cluster.Controller, cfg Config, pages int, dirty mem.LineBitmap) (simclock.Duration, error) {
	cfg = cfg.withDefaults()
	sl := newSimLinks(ctrl, 0)
	rm := newResourceManager(cfg, sl, localControl{ctrl})
	if !dirty.Any() {
		return 0, fmt.Errorf("core: eviction bench needs at least one dirty line")
	}
	base, err := rm.Malloc(uint64(pages) * mem.PageSize)
	if err != nil {
		return 0, err
	}
	// The FMem frames are registered with the NIC, so gathers read them
	// directly — the no-copy advantage of the approach.
	frame := sl.localEP.RegisterMR(mem.PageSize)
	segs := dirty.Segments()
	var now simclock.Duration
	const batch = 16
	var wrs []rdma.GatherWR
	var rl *rdmaLink
	flush := func() error {
		if len(wrs) == 0 {
			return nil
		}
		wrs[len(wrs)-1].Signaled = true
		done, err := rl.qp.PostGather(now, wrs)
		if err != nil {
			return err
		}
		rl.qp.PollCQ()
		now = done
		wrs = wrs[:0]
		return nil
	}
	for p := 0; p < pages; p++ {
		pls, err := rm.placementsFor(base + mem.Addr(p*mem.PageSize))
		if err != nil {
			return now, err
		}
		var ok bool
		rl, ok = pls[0].link.(*rdmaLink)
		if !ok {
			return now, fmt.Errorf("core: scatter-gather bench requires the simulated RDMA transport")
		}
		var sges []rdma.SGE
		for _, seg := range segs {
			sges = append(sges, rdma.SGE{
				Local:    frame,
				LocalOff: seg.First * mem.CacheLineSize,
				Len:      seg.N * mem.CacheLineSize,
			})
		}
		wrs = append(wrs, rdma.GatherWR{
			SGEs:      sges,
			RemoteKey: rl.node.LogKey(),
			RemoteOff: (p % 64) * mem.PageSize % (cluster.LogRegionSize - mem.PageSize),
		})
		if len(wrs) >= batch {
			if err := flush(); err != nil {
				return now, err
			}
		}
	}
	if err := flush(); err != nil {
		return now, err
	}
	return now, nil
}
