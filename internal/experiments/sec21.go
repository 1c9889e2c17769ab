package experiments

import (
	"fmt"

	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/kcachesim"
	"kona/internal/mem"
	"kona/internal/stats"
	"kona/internal/workload"
)

func init() {
	register("sec21", "Motivation (§2.1): remote access latencies and Redis throughput degradation",
		runSec21)
}

// runSec21 reproduces the motivating measurements: the per-system remote
// fetch latency (Infiniswap >40µs, LegoOS 10µs, RDMA itself 3µs, Kona
// ~3µs) and the Redis throughput collapse when only 25% of data is remote.
func runSec21(cfg Config) (*Result, error) {
	res := &Result{}

	// 1. Remote fetch latency per system: measured on the runtimes where
	// we have one, from the published model constants otherwise.
	lat := stats.NewTable("System", "remote 4KB fetch", "paper")
	konaLatency, vmLatency, err := measuredFetchLatencies()
	if err != nil {
		return nil, err
	}
	lat.AddRow("RDMA read (raw)", "2.98µs", "~3µs")
	lat.AddRow("Kona (no page fault)", konaLatency, "n/a (new)")
	lat.AddRow("Kona-VM / LegoOS class", vmLatency, "~10µs")
	lat.AddRow("Infiniswap", "40µs (modeled)", ">40µs")

	// 2. Redis throughput vs fraction of remote data, per system:
	// throughput scales as 1/AMAT.
	w := workload.RedisRand()
	thr := stats.NewTable("Local cache", "Kona", "LegoOS", "Infiniswap")
	baseline := map[kcachesim.System]float64{}
	var dropAt75 float64
	for _, pct := range []float64{100, 75, 50, 25} {
		row := []any{fmt.Sprintf("%.0f%%", pct)}
		for _, sys := range []kcachesim.System{kcachesim.Kona, kcachesim.LegoOS, kcachesim.Infiniswap} {
			r, err := kcachesim.Run(sys, kcachesim.Config{
				Workload: w, Accesses: fig8Accesses(cfg.Quick), Seed: cfg.Seed, CachePct: pct,
			})
			if err != nil {
				return nil, err
			}
			if pct == 100 {
				baseline[sys] = r.AMATns
			}
			rel := baseline[sys] / r.AMATns
			if sys == kcachesim.Infiniswap && pct == 75 {
				dropAt75 = 1 - rel
			}
			row = append(row, fmt.Sprintf("%.0f%%", rel*100))
		}
		thr.AddRow(row...)
	}

	res.Text = lat.String() + "\nRedis relative throughput by local cache size:\n" + thr.String()
	res.Notes = append(res.Notes, fmt.Sprintf(
		"moving 25%% of data remote costs Infiniswap %.0f%% of its throughput (paper: >60%%)", dropAt75*100))
	return res, nil
}

// measuredFetchLatencies measures one cold page fetch on each runtime.
func measuredFetchLatencies() (kona, vm string, err error) {
	mk := func() *cluster.Controller {
		ctrl := cluster.NewController()
		if err := ctrl.Register(cluster.NewMemoryNode(0, 64<<20)); err != nil {
			panic(err)
		}
		return ctrl
	}
	cfg := core.DefaultConfig(1 << 20)
	cfg.PrefetchDepth = 0
	k := core.NewKona(cfg, mk())
	addr, err := k.Malloc(mem.PageSize)
	if err != nil {
		return "", "", err
	}
	buf := make([]byte, 64)
	kd, err := k.Read(0, addr, buf)
	if err != nil {
		return "", "", err
	}
	kv := core.NewKonaVM(core.DefaultConfig(1<<20), mk())
	vaddr, err := kv.Malloc(mem.PageSize)
	if err != nil {
		return "", "", err
	}
	vd, err := kv.Read(0, vaddr, buf)
	if err != nil {
		return "", "", err
	}
	return kd.String(), vd.String(), nil
}
