// Command kona-kvload is the open-loop load generator for kona-kvd
// (DESIGN.md §12): it simulates a large population of distinct users —
// zipfian key popularity, configurable read/write mix and value-size
// distribution — arriving as a Poisson process whose rate does not slow
// down when the server does, so queueing delay lands in the reported
// latencies instead of being silently absorbed. It reports p50/p99/p999
// per op class against a configurable SLO, checks every value a get
// returns, and can re-read every acknowledged write afterwards to prove
// none was lost.
//
//	kona-kvload -addr 127.0.0.1:11211 -ops 1000000 -rate 20000 \
//	    -keys 1000000 -zipf 1.1 -read-frac 0.9 -conns 8 \
//	    -slo-p99 5ms -slo-p999 20ms -verify
//
// The exit status encodes the outcome for CI: 0 = run clean and SLO
// met, 1 = setup/transport failure, 2 = SLO missed, 3 = a read returned a
// torn or stale value, or verify found an acknowledged write lost.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"kona/internal/kv"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:11211", "kona-kvd address")
		ops         = flag.Uint64("ops", 100000, "operations to issue (0 = run for -duration)")
		duration    = flag.Duration("duration", 0, "generated arrival-time horizon when -ops 0")
		rate        = flag.Float64("rate", 5000, "Poisson arrival rate, ops/sec")
		keys        = flag.Uint64("keys", 1_000_000, "distinct keys (simulated users)")
		zipfS       = flag.Float64("zipf", 1.1, "zipf skew (>1; higher = hotter hot set)")
		readFrac    = flag.Float64("read-frac", 0.9, "fraction of ops that are GETs")
		sizes       = flag.String("value-sizes", "", "value-size distribution as bytes:weight[,bytes:weight...] (default small-object mix)")
		conns       = flag.Int("conns", 8, "client connections (keys hash-route to conns)")
		seed        = flag.Int64("seed", 1, "workload RNG seed")
		sloP99      = flag.Duration("slo-p99", 0, "p99 latency objective (0 = unchecked)")
		sloP999     = flag.Duration("slo-p999", 0, "p999 latency objective (0 = unchecked)")
		verify      = flag.Bool("verify", false, "after the run, re-read every acknowledged write and prove none was lost or torn")
		progress    = flag.Duration("progress", 5*time.Second, "progress report cadence (0 = quiet)")
		ctrlMetrics = flag.String("ctrl-metrics", "", "rack controller metrics address (host:port); print the run's per-memnode op/byte distribution from its load map")
	)
	flag.Parse()

	sizeClasses, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kona-kvload: %v\n", err)
		os.Exit(1)
	}

	cfg := kv.LoadConfig{
		Workload: kv.WorkloadConfig{
			Keys:         *keys,
			ZipfS:        *zipfS,
			ReadFraction: *readFrac,
			ValueSizes:   sizeClasses,
			RatePerSec:   *rate,
			Seed:         *seed,
		},
		Conns:    *conns,
		Ops:      *ops,
		Duration: *duration,
		SLOp99:   *sloP99,
		SLOp999:  *sloP999,
		Verify:   *verify,
	}
	engine, err := kv.NewEngine(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kona-kvload: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("kona-kvload: config addr=%s ops=%d duration=%s rate=%g keys=%d zipf=%g read-frac=%g conns=%d seed=%d verify=%t\n",
		*addr, *ops, *duration, *rate, *keys, *zipfS, *readFrac, *conns, *seed, *verify)

	stopProgress := make(chan struct{})
	if *progress > 0 {
		go func() {
			t := time.NewTicker(*progress)
			defer t.Stop()
			start := time.Now()
			for {
				select {
				case <-stopProgress:
					return
				case <-t.C:
					fmt.Printf("kona-kvload: %s elapsed, %d issued, %d completed, %d errors\n",
						time.Since(start).Round(time.Second), engine.Issued(), engine.Completed(), engine.Errors())
				}
			}
		}()
	}

	// Per-memnode distribution: snapshot the controller's load-map (and
	// lease-directory) counters around the run so only this run's traffic
	// shows in the deltas. Scrape failures are reported but never fail the
	// run — the distribution is diagnostics, not a result.
	var loadBefore map[int]map[string]uint64
	var leaseBefore map[string]uint64
	if *ctrlMetrics != "" {
		var serr error
		if loadBefore, leaseBefore, serr = scrapeNodeLoads(*ctrlMetrics); serr != nil {
			fmt.Fprintf(os.Stderr, "kona-kvload: controller metrics scrape: %v\n", serr)
		}
	}

	res, err := engine.Run(*addr)
	close(stopProgress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kona-kvload: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("\nkona-kvload: %d/%d ops completed in %s (%d errors)\n",
		res.Completed, res.Issued, res.Wall.Round(time.Millisecond), res.Errors)
	fmt.Printf("  offered %.0f ops/s, achieved %.0f ops/s\n", res.OfferedRate, res.AchievedRate)
	fmt.Printf("  gets: %d (%d hits, %d misses)   sets: %d\n", res.Get.Count, res.Hits, res.Misses, res.Set.Count)
	printLat := func(name string, l kv.LatencySummary) {
		if l.Count == 0 {
			return
		}
		fmt.Printf("  %-5s p50=%-10s p99=%-10s p999=%-10s mean=%s\n",
			name, l.P50, l.P99, l.P999, l.Mean)
	}
	printLat("get", res.Get)
	printLat("set", res.Set)
	printLat("all", res.All)
	if *sloP99 > 0 || *sloP999 > 0 {
		verdict := "MET"
		if res.SLOViolated {
			verdict = "VIOLATED"
		}
		fmt.Printf("  SLO (p99<=%s p999<=%s): %s\n", orDash(*sloP99), orDash(*sloP999), verdict)
	}
	if *verify {
		fmt.Printf("  verify: %d acknowledged keys checked, %d missing\n", res.VerifiedKeys, res.Missing)
	}
	fmt.Printf("  reads: %d torn, %d stale\n", res.Torn, res.Stale)
	if *ctrlMetrics != "" {
		loadAfter, leaseAfter, serr := scrapeNodeLoads(*ctrlMetrics)
		if serr != nil {
			fmt.Fprintf(os.Stderr, "kona-kvload: controller metrics scrape: %v\n", serr)
		} else {
			printNodeLoads(loadBefore, loadAfter)
			printLeaseActivity(leaseBefore, leaseAfter)
		}
	}

	switch {
	case res.Torn+res.Stale > 0 || *verify && res.Missing > 0:
		os.Exit(3)
	case res.SLOViolated:
		os.Exit(2)
	}
}

// scrapeNodeLoads fetches the controller's /metrics text and returns the
// cluster.load.node.<id>.<field> values keyed by node id, then field
// (read_ops, write_ops, read_bytes, write_bytes, score, pending), plus
// the cluster.lease.<field> ownership-directory counters keyed by field
// (grants, publishes, takeovers, ...; DESIGN.md §14).
func scrapeNodeLoads(addr string) (map[int]map[string]uint64, map[string]uint64, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[int]map[string]uint64)
	leases := make(map[string]uint64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "cluster.lease."); ok {
			nameVal := strings.Fields(rest) // "<field> <value>"
			if len(nameVal) != 2 {
				continue
			}
			if v, verr := strconv.ParseUint(nameVal[1], 10, 64); verr == nil {
				leases[nameVal[0]] = v
			}
			continue
		}
		rest, ok := strings.CutPrefix(sc.Text(), "cluster.load.node.")
		if !ok {
			continue
		}
		nameVal := strings.Fields(rest) // "<id>.<field> <value>"
		if len(nameVal) != 2 {
			continue
		}
		idField := strings.SplitN(nameVal[0], ".", 2)
		if len(idField) != 2 {
			continue
		}
		id, ierr := strconv.Atoi(idField[0])
		v, verr := strconv.ParseUint(nameVal[1], 10, 64)
		if ierr != nil || verr != nil {
			continue
		}
		if out[id] == nil {
			out[id] = make(map[string]uint64)
		}
		out[id][idField[1]] = v
	}
	return out, leases, sc.Err()
}

// printNodeLoads prints the per-memnode op/byte distribution for the run:
// the delta of each node's load-map counters across the run, with each
// node's share of the total. An even rack shows near-equal shares; a
// skewed one is the signal that load-aware placement or migration is
// worth enabling.
func printNodeLoads(before, after map[int]map[string]uint64) {
	var ids []int
	for id := range after {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		fmt.Println("  memnode distribution: no cluster.load.node.* metrics (are memnodes pushing load reports?)")
		return
	}
	delta := func(id int, field string) uint64 {
		a := after[id][field]
		if b := before[id][field]; b < a {
			return a - b
		}
		return 0 // counter reset mid-run (node rejoin): show nothing rather than garbage
	}
	var totOps, totBytes uint64
	for _, id := range ids {
		totOps += delta(id, "read_ops") + delta(id, "write_ops")
		totBytes += delta(id, "read_bytes") + delta(id, "write_bytes")
	}
	fmt.Println("\n  memnode distribution (this run):")
	fmt.Println("  node   read_ops  write_ops   read_bytes  write_bytes  ops-share")
	for _, id := range ids {
		ops := delta(id, "read_ops") + delta(id, "write_ops")
		share := 0.0
		if totOps > 0 {
			share = 100 * float64(ops) / float64(totOps)
		}
		fmt.Printf("  %4d %10d %10d %12d %12d     %5.1f%%\n",
			id, delta(id, "read_ops"), delta(id, "write_ops"),
			delta(id, "read_bytes"), delta(id, "write_bytes"), share)
	}
	fmt.Printf("  total %9d ops %26d bytes\n", totOps, totBytes)
}

// printLeaseActivity prints the lease-directory counter deltas for the
// run (slab-sharing traffic: grants, publishes, takeovers; DESIGN.md
// §14). The writers/readers gauges print as absolute values — they are
// occupancy, not counters. Quiet when the controller exposes no lease
// metrics at all (pre-lease daemon).
func printLeaseActivity(before, after map[string]uint64) {
	if len(after) == 0 {
		return
	}
	delta := func(field string) uint64 {
		a := after[field]
		if b := before[field]; b < a {
			return a - b
		}
		return 0
	}
	fmt.Printf("  lease activity (this run): grants=%d publishes=%d takeovers=%d expirations=%d rejects=%d fence_errors=%d (now writers=%d readers=%d)\n",
		delta("grants"), delta("publishes"), delta("takeovers"), delta("expirations"),
		delta("rejects"), delta("fence_errors"), after["writers"], after["readers"])
}

func orDash(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.String()
}

// parseSizes reads "64:30,512:20" into size classes.
func parseSizes(s string) ([]kv.SizeClass, error) {
	if s == "" {
		return nil, nil
	}
	var out []kv.SizeClass
	for _, part := range strings.Split(s, ",") {
		bw := strings.SplitN(part, ":", 2)
		if len(bw) != 2 {
			return nil, fmt.Errorf("bad size class %q (want bytes:weight)", part)
		}
		b, berr := strconv.Atoi(strings.TrimSpace(bw[0]))
		w, werr := strconv.ParseFloat(strings.TrimSpace(bw[1]), 64)
		if berr != nil || werr != nil {
			return nil, fmt.Errorf("bad size class %q (want bytes:weight)", part)
		}
		out = append(out, kv.SizeClass{Bytes: b, Weight: w})
	}
	return out, nil
}
