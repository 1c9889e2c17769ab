package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// gated is one end-to-end metric: which way is better, and the floor
// under the bound `-noise` proposes (the smallest change worth flagging
// even on a silent host).
type gated struct {
	name   string
	higher bool
	floor  float64
}

// endToEnd declares the gated metrics in the order they print.
var endToEnd = []gated{
	{"setup_s", false, 0.25},
	{"ops_rel", true, 0.06},
	{"read_mean_rel", false, 0.06},
	{"write_mean_rel", false, 0.08},
	{"sync_mean_rel", false, 0.10},
	{"read_amp", false, 0.02},
	{"write_amp", false, 0.02},
	{"rtts_per_op", false, 0.02},
	{"allocs_per_op", false, 0.02},
	{"alloc_bytes_per_op", false, 0.02},
	{"peak_rss_mb", false, 0.05},
}

// maxBound is the largest bound BENCHMARK.json may carry.
const maxBound = 0.25

// iqrShare is the benchmark driver's spread statistic: the distance
// between the first and third quartile as a share of the median, with
// the quartiles of Python's statistics.quantiles(values, n=4).
func iqrShare(vals []float64) float64 {
	s := sortedCopy(vals)
	// Python's default (exclusive) method puts quartile k at 1-based
	// position k(n+1)/4.
	q := func(k float64) float64 { return interpolate(s, k*float64(len(s)+1)/4-1) }
	return (q(3) - q(1)) / median(s)
}

// runNoise runs the untraced suite n times, one fresh process per pass,
// workloads interleaved so slow drift of the host hits them alike, and
// prints per metric: median, run-to-run range, the driver's quartile
// spread, the disagreement between the medians of the odd and the even
// runs (an A/A comparison), and the bound that follows: the floor, or
// three times the larger of spread and disagreement — the driver wants
// every spread under a third of its bound.
func runNoise(n int, seed int64, seconds float64) int {
	if n < 4 {
		fmt.Fprintln(os.Stderr, "bench: -noise needs at least 4 runs")
		return 2
	}
	vals := map[string]map[string][]float64{} // workload -> metric -> one value per run
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			res, err := runChild(wl.name, seed+int64(i), seconds, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if vals[wl.name] == nil {
				vals[wl.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				vals[wl.name][name] = append(vals[wl.name][name], m.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "bench: noise run %d of %d done\n", i+1, n)
	}
	fmt.Printf("%d runs per workload, seeds %d..%d, %g s measured per run.\n\n", n, seed, seed+int64(n)-1, seconds)
	worst := map[string]float64{}
	for _, wl := range workloads {
		fmt.Printf("### %s\n\n| metric | median | range | IQR/median | odd/even | bound |\n|---|---|---|---|---|---|\n", wl.name)
		for _, em := range endToEnd {
			v := vals[wl.name][em.name]
			var odd, even []float64
			for i, x := range v {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
				}
			}
			s := sortedCopy(v)
			med := median(s)
			disagree := math.Abs(median(odd)-median(even)) / med
			spread := iqrShare(v)
			bound := math.Min(maxBound, math.Max(em.floor, 3*math.Max(disagree, spread)))
			worst[em.name] = math.Max(worst[em.name], bound)
			fmt.Printf("| %s | %.5g | %.2f%% | %.2f%% | %.2f%% | %.1f%% |\n", em.name, med,
				100*(s[len(s)-1]-s[0])/med, 100*spread, 100*disagree, 100*bound)
		}
		fmt.Println()
	}
	fmt.Printf("### Proposed bounds (largest over the workloads)\n\n")
	names := make([]string, 0, len(worst))
	for name := range worst {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("- `%s`: %.3f\n", name, worst[name])
	}
	return 0
}
