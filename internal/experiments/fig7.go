package experiments

import (
	"fmt"

	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/mem"
	"kona/internal/simclock"
	"kona/internal/stats"
	"kona/internal/telemetry"
)

func init() {
	register("fig7",
		"Kona and Kona-VM microbenchmark: read+write 1 cache line per page, 1/2/4 threads",
		runFig7)
}

// fig7PagesPerThread scales the paper's 4GB-per-thread region (the
// runtime moves real bytes per page, so the region is scaled 256x; the
// per-page work ratio between systems is size-independent).
const fig7PagesPerThread = 4096

// accessor is a runtime under the Fig 7 microbenchmark.
type accessor interface {
	Malloc(size uint64) (mem.Addr, error)
	Read(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error)
	Write(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error)
}

// fig7Cluster builds a fresh rack for one variant run.
func fig7Cluster(totalBytes uint64) *cluster.Controller {
	ctrl := cluster.NewController()
	// Two memory nodes with ample room.
	for i := 0; i < 2; i++ {
		if err := ctrl.Register(cluster.NewMemoryNode(i, 2*totalBytes+(64<<20))); err != nil {
			panic(err)
		}
	}
	return ctrl
}

// fig7Run executes the microbenchmark on a runtime: each thread reads and
// writes one cache line in every page of its private region, threads
// interleaving round-robin. It returns the benchmark's completion time
// (the slowest thread).
func fig7Run(rt accessor, threads, pagesPerThread int) (simclock.Duration, error) {
	regions := make([]mem.Addr, threads)
	for i := range regions {
		addr, err := rt.Malloc(uint64(pagesPerThread) * mem.PageSize)
		if err != nil {
			return 0, err
		}
		regions[i] = addr
	}
	// Threads are simulated in virtual-time order: at each step the
	// thread with the earliest clock executes its next operation, so
	// shared resources (NIC, FPGA directory, fault path) see causally
	// ordered arrivals.
	clocks := make([]simclock.Duration, threads)
	pageIdx := make([]int, threads)
	writePhase := make([]bool, threads)
	buf := make([]byte, mem.CacheLineSize)
	remaining := threads
	for remaining > 0 {
		th := -1
		for i := 0; i < threads; i++ {
			if pageIdx[i] >= pagesPerThread {
				continue
			}
			if th < 0 || clocks[i] < clocks[th] {
				th = i
			}
		}
		addr := regions[th] + mem.Addr(pageIdx[th]*mem.PageSize)
		var err error
		if !writePhase[th] {
			clocks[th], err = rt.Read(clocks[th], addr, buf)
			writePhase[th] = true
		} else {
			clocks[th], err = rt.Write(clocks[th], addr, buf)
			writePhase[th] = false
			pageIdx[th]++
			if pageIdx[th] >= pagesPerThread {
				remaining--
			}
		}
		if err != nil {
			return 0, fmt.Errorf("thread %d page %d: %w", th, pageIdx[th], err)
		}
	}
	var latest simclock.Duration
	for _, c := range clocks {
		if c > latest {
			latest = c
		}
	}
	return latest, nil
}

// fig7Variant builds and runs one system variant. reg (nil = disabled)
// instruments the runtime's data path so -telemetry runs of the artifact
// expose fetch/eviction counters.
func fig7Variant(name string, threads, pages int, reg *telemetry.Registry) (simclock.Duration, error) {
	total := uint64(threads*pages) * mem.PageSize
	ctrl := fig7Cluster(total)
	cacheBytes := total / 2 // 50% local cache (§6.1)
	noEvict := name == "Kona-NoEvict" || name == "Kona-VM-NoEvict" || name == "Kona-VM-NoWP"
	if noEvict {
		cacheBytes = total * 2 // never fills: eviction disabled
	}
	cfg := core.DefaultConfig(cacheBytes)
	cfg.SlabSize = uint64(pages) * mem.PageSize
	cfg.Metrics = reg

	switch name {
	case "Kona", "Kona-NoEvict":
		// The run never Syncs, so its counts reach reg only when published.
		rt := core.NewKona(cfg, ctrl)
		defer rt.PublishTelemetry()
		return fig7Run(rt, threads, pages)
	case "Kona-VM", "Kona-VM-NoEvict", "Kona-VM-NoWP":
		rt := core.NewKonaVM(cfg, ctrl)
		rt.EvictEnabled = !noEvict
		rt.WriteProtect = name != "Kona-VM-NoWP"
		return fig7Run(rt, threads, pages)
	default:
		return 0, fmt.Errorf("unknown variant %q", name)
	}
}

// fig7Variants is the figure's x-axis grouping.
var fig7Variants = []string{"Kona", "Kona-VM", "Kona-NoEvict", "Kona-VM-NoEvict", "Kona-VM-NoWP"}

// runFig7 regenerates Fig 7.
func runFig7(cfg Config) (*Result, error) {
	pages := fig7PagesPerThread
	if cfg.Quick {
		pages = 512
	}
	threadCounts := []int{1, 2, 4}
	var series []stats.Series
	times := map[string]map[int]simclock.Duration{}
	for _, v := range fig7Variants {
		s := stats.Series{Name: v}
		times[v] = map[int]simclock.Duration{}
		for _, th := range threadCounts {
			d, err := fig7Variant(v, th, pages, cfg.Metrics)
			if err != nil {
				return nil, fmt.Errorf("%s/%d threads: %w", v, th, err)
			}
			times[v][th] = d
			s.Add(float64(th), float64(d)/1e6) // milliseconds
		}
		series = append(series, s)
	}
	res := &Result{
		Text:   stats.RenderSeries("threads (time in ms)", series...),
		Series: series,
	}
	for _, th := range threadCounts {
		r := float64(times["Kona-VM"][th]) / float64(times["Kona"][th])
		rn := float64(times["Kona-VM-NoEvict"][th]) / float64(times["Kona-NoEvict"][th])
		rw := float64(times["Kona-VM-NoWP"][th]) / float64(times["Kona-NoEvict"][th])
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d thread(s): Kona %.1fx faster than Kona-VM (paper: 6.6x@1T, 4-5x@2-4T); NoEvict %.1fx (paper 3-5x); NoWP still %.1fx slower than Kona (paper 1.2-2.9x)",
			th, r, rn, rw))
	}
	return res, nil
}
