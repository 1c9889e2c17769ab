package experiments

import (
	"fmt"

	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/kcachesim"
	"kona/internal/ktracker"
	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/stats"
	"kona/internal/workload"
)

// Ablations: design-choice studies the paper discusses in prose but does
// not chart. Each isolates one mechanism of Kona's design.

func init() {
	register("abl-prefetch",
		"Ablation: FPGA sequential prefetcher on/off (Fig 7 workload)",
		runAblPrefetch)
	register("abl-sg",
		"Ablation: cache-line log vs NIC scatter-gather eviction (§6.4)",
		runAblScatterGather)
	register("abl-replicas",
		"Ablation: eviction cost vs replication factor (§4.5)",
		runAblReplicas)
	register("abl-flush",
		"Ablation: eviction-log flush threshold",
		runAblFlush)
	register("abl-assoc",
		"Ablation: DRAM-cache associativity (§6.2: no significant impact)",
		runAblAssoc)
	register("abl-tracking",
		"Ablation: dirty-tracking mechanisms — write-protect vs Intel PML vs coherence",
		runAblTracking)
}

// runAblPrefetch compares the Fig 7 microbenchmark (sequential page
// touches — the prefetcher's best case) with and without the FPGA's
// next-page prefetcher.
func runAblPrefetch(cfg Config) (*Result, error) {
	pages := 2048
	if cfg.Quick {
		pages = 512
	}
	run := func(depth int) (simclock.Duration, core.EvictStats, error) {
		total := uint64(pages) * mem.PageSize
		ctrl := fig7Cluster(total)
		c := core.DefaultConfig(total / 2)
		c.SlabSize = total
		c.PrefetchDepth = depth
		rt := core.NewKona(c, ctrl)
		d, err := fig7Run(rt, 1, pages)
		return d, rt.EvictStats(), err
	}
	on, _, err := run(1)
	if err != nil {
		return nil, err
	}
	off, _, err := run(0)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Prefetch", "time (ms)", "per page")
	t.AddRow("on", float64(on)/1e6, fmt.Sprintf("%.2fµs", float64(on)/float64(pages)/1e3))
	t.AddRow("off", float64(off)/1e6, fmt.Sprintf("%.2fµs", float64(off)/float64(pages)/1e3))
	return &Result{
		Text: t.String(),
		Series: []stats.Series{{Name: "time-ms", Points: []stats.Point{
			{X: 1, Y: float64(on) / 1e6}, {X: 0, Y: float64(off) / 1e6},
		}}},
		Notes: []string{
			"§3/§4.4: page faults serialize and stop the hardware prefetcher at page boundaries; Kona's fills don't, so the FPGA can prefetch from remote memory. The gain here is bounded by the NIC's fetch pipelining (depth-1 prefetcher)",
		},
	}, nil
}

// runAblScatterGather compares the CL log against gathering dirty
// segments with NIC scatter-gather (no local copy, per-element NIC cost).
func runAblScatterGather(cfg Config) (*Result, error) {
	pages := fig11Pages(cfg.Quick)
	logS := stats.Series{Name: "CL log (µs/page)"}
	sgS := stats.Series{Name: "scatter-gather (µs/page)"}
	t := stats.NewTable("alternate CLs", "CL log µs/page", "SG µs/page", "SG/log")
	for _, n := range []int{1, 2, 4, 8, 16} {
		dirty := dirtyPattern(n, false)
		logTime, _, _, err := core.EvictionBench(fig11Cluster(), core.DefaultConfig(1<<20), pages, dirty)
		if err != nil {
			return nil, err
		}
		sgTime, err := core.EvictionBenchSG(fig11Cluster(), core.DefaultConfig(1<<20), pages, dirty)
		if err != nil {
			return nil, err
		}
		perLog := float64(logTime) / float64(pages) / 1e3
		perSG := float64(sgTime) / float64(pages) / 1e3
		logS.Add(float64(n), perLog)
		sgS.Add(float64(n), perSG)
		t.AddRow(n, perLog, perSG, perSG/perLog)
	}
	return &Result{
		Text:   t.String(),
		Series: []stats.Series{logS, sgS},
		Notes: []string{
			"§6.4: scatter-gather was 'consistently worse than Kona ... due to inefficiencies in gathering many different entries' — per-SGE NIC costs outweigh the avoided copy",
		},
	}, nil
}

// runAblReplicas measures eviction time and wire traffic as the
// replication factor grows.
func runAblReplicas(cfg Config) (*Result, error) {
	pages := fig11Pages(cfg.Quick)
	dirty := dirtyPattern(4, true)
	t := stats.NewTable("replicas", "evict time (ms)", "wire bytes", "vs 1 replica")
	s := stats.Series{Name: "evict-ms"}
	var base float64
	for _, r := range []int{1, 2, 3} {
		ctrl := cluster.NewController()
		for i := 0; i < r; i++ {
			if err := ctrl.Register(cluster.NewMemoryNode(i, 64<<20)); err != nil {
				return nil, err
			}
		}
		c := core.DefaultConfig(1 << 20)
		c.Replicas = r
		d, _, st, err := core.EvictionBench(ctrl, c, pages, dirty)
		if err != nil {
			return nil, err
		}
		ms := float64(d) / 1e6
		if r == 1 {
			base = ms
		}
		t.AddRow(r, ms, st.WireBytes, fmt.Sprintf("%.2fx", ms/base))
		s.Add(float64(r), ms)
	}
	return &Result{
		Text:   t.String(),
		Series: []stats.Series{s},
		Notes: []string{
			"§4.5: replication multiplies eviction wire traffic but eviction stays off the application's critical path; cache-line granularity keeps the per-replica cost low",
		},
	}, nil
}

// runAblFlush sweeps the eviction-log flush threshold.
func runAblFlush(cfg Config) (*Result, error) {
	pages := fig11Pages(cfg.Quick)
	dirty := dirtyPattern(4, true)
	t := stats.NewTable("threshold", "evict time (ms)", "flushes", "ack wait %")
	s := stats.Series{Name: "evict-ms"}
	for _, thr := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		c := core.DefaultConfig(1 << 20)
		c.LogBytes = 1 << 20
		c.FlushThreshold = thr
		d, b, st, err := core.EvictionBench(fig11Cluster(), c, pages, dirty)
		if err != nil {
			return nil, err
		}
		ackPct := 100 * float64(b.AckWait) / float64(b.Total())
		t.AddRow(fmt.Sprintf("%dKB", thr>>10), float64(d)/1e6, st.Flushes, ackPct)
		s.Add(float64(thr>>10), float64(d)/1e6)
	}
	return &Result{
		Text:   t.String(),
		Series: []stats.Series{s},
		Notes: []string{
			"small thresholds pay per-flush verb costs and ack round trips; large thresholds amortize them — the FaRM-style ring buffer's size is a real knob",
		},
	}, nil
}

// runAblAssoc sweeps the DRAM-cache associativity in the AMAT simulation.
func runAblAssoc(cfg Config) (*Result, error) {
	w := workload.RedisRand()
	t := stats.NewTable("assoc", "Kona AMAT (ns) @25% cache")
	s := stats.Series{Name: "AMAT-ns"}
	var lo, hi float64
	for i, assoc := range []int{1, 2, 4, 8, 16} {
		r, err := kcachesim.Run(kcachesim.Kona, kcachesim.Config{
			Workload: w, Accesses: fig8Accesses(cfg.Quick), Seed: cfg.Seed,
			CachePct: 25, Assoc: assoc,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(assoc, r.AMATns)
		s.Add(float64(assoc), r.AMATns)
		if i == 0 || r.AMATns < lo {
			lo = r.AMATns
		}
		if r.AMATns > hi {
			hi = r.AMATns
		}
	}
	return &Result{
		Text:   t.String(),
		Series: []stats.Series{s},
		Notes: []string{fmt.Sprintf(
			"§6.2(2): 'associativity does not significantly impact overall latency' — spread here is %.1f%%",
			100*(hi-lo)/lo)},
	}, nil
}

// runAblTracking compares the three dirty-tracking mechanisms on overhead
// and on amplification — the two axes the paper argues must be solved
// together.
func runAblTracking(cfg Config) (*Result, error) {
	t := stats.NewTable("Workload", "WP overhead %", "PML overhead %", "coherence overhead %", "4KB amp", "CL amp")
	for _, mk := range []func() *workload.Workload{workload.RedisRand, workload.LinearRegression} {
		w := mk()
		skip := 0
		if w.Name == "Redis-Rand" {
			skip = 10
		}
		if cfg.Quick {
			w.Windows = min(w.Windows, skip+12)
		}
		results, err := ktracker.Run(w, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sp, err := ktracker.Speedup(w, results, skip)
		if err != nil {
			return nil, err
		}
		// Speedup ≈ 1/(1-f)-1; invert to the overhead fraction.
		wpOverhead := 100 * (1 - 1/(1+sp/100))
		pml, err := ktracker.PMLOverhead(w, results, skip)
		if err != nil {
			return nil, err
		}
		sum := ktracker.Summarize(results, skip)
		t.AddRow(w.Name, wpOverhead, pml, 0.0, sum.MeanAmp4K, sum.MeanAmpCL)
	}
	return &Result{
		Text: t.String(),
		Notes: []string{
			"PML (Intel Page Modification Logging, §8) removes most of write-protection's fault cost but 'continues to rely on page granularity' — its amplification column equals WP's; only coherence-based tracking fixes both overhead and amplification",
		},
	}, nil
}

// strided microbenchmark for the ext-leap experiment: touch every other
// page of a region through a runtime with the given prefetch depth.
// vmLeap selects the Kona-VM baseline with Leap-style software prefetch
// instead of Kona's FPGA prefetcher.
func stridedRun(depth, pages int, vmLeap bool) (simclock.Duration, error) {
	total := uint64(pages) * mem.PageSize
	ctrl := fig7Cluster(total)
	c := core.DefaultConfig(total) // no eviction pressure: isolate fetch
	c.SlabSize = total
	var rt interface {
		Malloc(uint64) (mem.Addr, error)
		Read(simclock.Duration, mem.Addr, []byte) (simclock.Duration, error)
	}
	if vmLeap {
		vm := core.NewKonaVM(c, ctrl)
		if depth > 0 {
			vm.EnableLeapPrefetch(depth)
		}
		rt = vm
	} else {
		c.PrefetchDepth = depth
		rt = core.NewKona(c, ctrl)
	}
	base, err := rt.Malloc(total)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, mem.CacheLineSize)
	var now simclock.Duration
	for p := 0; p < pages; p += 2 {
		now, err = rt.Read(now, base+mem.Addr(p*mem.PageSize), buf)
		if err != nil {
			return 0, err
		}
	}
	return now, nil
}

func init() {
	register("ext-leap",
		"Extension: Leap-style adaptive stride prefetching (stride-2 workload)",
		runExtLeap)
}

// runExtLeap compares prefetch depths on a stride-2 access pattern that
// the classic next-page prefetcher cannot see.
func runExtLeap(cfg Config) (*Result, error) {
	pages := 4096
	if cfg.Quick {
		pages = 1024
	}
	t := stats.NewTable("configuration", "time (ms)", "µs/page")
	s := stats.Series{Name: "time-ms"}
	for _, depth := range []int{1, 2, 4, 8} {
		d, err := stridedRun(depth, pages, false)
		if err != nil {
			return nil, err
		}
		label := "Kona, next-page (depth 1)"
		if depth > 1 {
			label = fmt.Sprintf("Kona, stride depth %d", depth)
		}
		t.AddRow(label, float64(d)/1e6, float64(d)/float64(pages/2)/1e3)
		s.Add(float64(depth), float64(d)/1e6)
	}
	// The baseline with Leap's software prefetcher: faults avoided on
	// predicted pages, but the prediction+fetch runs in software on the
	// faulting core.
	vmPlain, err := stridedRun(0, pages, true)
	if err != nil {
		return nil, err
	}
	vmLeap, err := stridedRun(8, pages, true)
	if err != nil {
		return nil, err
	}
	t.AddRow("Kona-VM, no prefetch", float64(vmPlain)/1e6, float64(vmPlain)/float64(pages/2)/1e3)
	t.AddRow("Kona-VM + Leap (depth 8)", float64(vmLeap)/1e6, float64(vmLeap)/float64(pages/2)/1e3)
	vmSeries := stats.Series{Name: "vm-ms", Points: []stats.Point{
		{X: 0, Y: float64(vmPlain) / 1e6}, {X: 8, Y: float64(vmLeap) / 1e6},
	}}
	return &Result{
		Text:   t.String(),
		Series: []stats.Series{s, vmSeries},
		Notes: []string{
			"the classic next-page prefetcher never fires on a stride-2 pattern; Leap-style majority-vote stride detection ([57]) does, and deeper adaptive windows hide progressively more fetch latency",
			"on this perfectly strided stream Leap can hide the baseline's fault path almost entirely (it was built for exactly this); the paper's Table 2 workloads are dominated by random access, where no predictor fires and only fault elimination helps — the two techniques compose rather than substitute",
		},
	}, nil
}

func init() {
	register("abl-fetchgran",
		"Ablation: runtime fetch granularity — random vs sequential access (§4.4)",
		runAblFetchGran)
}

// fetchGranRun touches one line per page (random order or sequential)
// through a Kona runtime with the given fetch granularity and returns the
// elapsed time plus bytes pulled from remote memory.
func fetchGranRun(fetchBytes uint64, pages int, sequential bool) (simclock.Duration, uint64, error) {
	total := uint64(pages) * mem.PageSize
	ctrl := fig7Cluster(total)
	c := core.DefaultConfig(total)
	c.SlabSize = total
	c.PrefetchDepth = 0
	c.FetchBytes = fetchBytes
	rt := core.NewKona(c, ctrl)
	base, err := rt.Malloc(total)
	if err != nil {
		return 0, 0, err
	}
	order := make([]int, pages)
	for i := range order {
		order[i] = i
	}
	if !sequential {
		// Deterministic shuffle (no RNG in scope needed).
		for i := range order {
			j := (i*2654435761 + 17) % pages
			order[i], order[j] = order[j], order[i]
		}
	}
	buf := make([]byte, mem.CacheLineSize)
	var now simclock.Duration
	for _, p := range order {
		now, err = rt.Read(now, base+mem.Addr(p*mem.PageSize+p%64*mem.CacheLineSize), buf)
		if err != nil {
			return 0, 0, err
		}
	}
	return now, rt.FPGAStats().BytesFetched, nil
}

// runAblFetchGran sweeps the fetch granularity for a one-line-per-page
// pattern, where small fetches shine, reporting time and wasted transfer.
func runAblFetchGran(cfg Config) (*Result, error) {
	pages := 2048
	if cfg.Quick {
		pages = 512
	}
	useful := uint64(pages) * mem.CacheLineSize
	t := stats.NewTable("fetch", "time (ms)", "bytes moved", "transfer waste")
	s := stats.Series{Name: "time-ms"}
	for _, fb := range []uint64{64, 512, 1024, 4096} {
		d, moved, err := fetchGranRun(fb, pages, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dB", fb), float64(d)/1e6, moved,
			fmt.Sprintf("%.0fx", float64(moved)/float64(useful)))
		s.Add(float64(fb), float64(d)/1e6)
	}
	return &Result{
		Text:   t.String(),
		Series: []stats.Series{s},
		Notes: []string{
			"one random line per page: small fetches move up to 64x less data; the paper still picks 4KB because real workloads have the spatial locality Fig 8d shows (and metadata stays simple, §6.2(2))",
		},
	}, nil
}
