// Command kona-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	kona-bench -list
//	kona-bench -run table2
//	kona-bench -run fig8a,fig8b -quick -plot
//	kona-bench -run all -out results.txt
//	kona-bench -run all -quick -parallel 8
//	kona-bench -run fig7 -quick -telemetry
//	kona-bench -run fig8a -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Artifacts regenerate on the parallel experiment engine (-parallel
// bounds the worker pool; the default uses every core) and print in
// stable ID order, so output is byte-identical to a serial run for a
// fixed seed.
//
// -telemetry threads a fresh telemetry registry through each artifact's
// runtimes and prints the counters it accumulated after the artifact's
// output — per-artifact deltas by construction. It forces serial
// execution so attribution is exact.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"kona/internal/experiments"
	"kona/internal/stats"
	"kona/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "kona-bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runIDs     = flag.String("run", "all", "comma-separated artifact ids, or 'all'")
		list       = flag.Bool("list", false, "list available artifacts and exit")
		quick      = flag.Bool("quick", false, "reduced trace lengths for fast runs")
		plot       = flag.Bool("plot", false, "render each figure as an ASCII chart too")
		out        = flag.String("out", "", "also write results to this file")
		seed       = flag.Int64("seed", 42, "deterministic seed")
		parallel   = flag.Int("parallel", 0, "experiment engine workers (0 = GOMAXPROCS, 1 = serial)")
		telem      = flag.Bool("telemetry", false, "print per-artifact runtime counters (forces serial execution)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Describe(id)
			fmt.Printf("%-8s %s\n", id, title)
		}
		return nil
	}

	// Validate the full ID list before executing anything: a typo must not
	// abort mid-run after printing partial results.
	ids := experiments.IDs()
	if *runIDs != "all" {
		ids = strings.Split(*runIDs, ",")
		var unknown []string
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if _, ok := experiments.Describe(ids[i]); !ok {
				unknown = append(unknown, ids[i])
			}
		}
		if len(unknown) > 0 {
			return fmt.Errorf("unknown artifact(s) %s (have %s)",
				strings.Join(unknown, ", "), strings.Join(experiments.IDs(), ", "))
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var sinks []io.Writer
	sinks = append(sinks, os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		sinks = append(sinks, f)
	}
	w := io.MultiWriter(sinks...)

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *parallel}
	print := func(res *experiments.Result) {
		fmt.Fprintln(w, res.String())
		if *plot {
			if c := res.Chart(); c != "" {
				fmt.Fprintln(w, c)
			}
		}
	}
	var runErr error
	if *telem {
		// One fresh registry per artifact, run serially: the printed
		// counters are exactly what that artifact's runtimes did.
		cfg.Workers = 1
		for _, id := range ids {
			reg := telemetry.New(0)
			cfg.Metrics = reg
			res, err := experiments.Run(id, cfg)
			if err != nil {
				runErr = errors.Join(runErr, err)
				continue
			}
			print(res)
			if tt := telemetryTable(reg.Snapshot()); tt != "" {
				fmt.Fprintf(w, "-- %s telemetry --\n%s", id, tt)
			}
		}
	} else {
		var results []*experiments.Result
		results, runErr = experiments.RunMany(ids, cfg)
		for _, res := range results {
			print(res)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	// Failed artifacts surface together after the successful output.
	return runErr
}

// telemetryTable renders a snapshot's non-zero counters and gauges (plus
// histogram summaries) as an aligned stats table, sorted by metric name.
// Returns "" when the artifact touched no instrumented path.
func telemetryTable(s telemetry.Snapshot) string {
	type row struct {
		name  string
		value string
	}
	var rows []row
	for name, v := range s.Counters {
		if v != 0 {
			rows = append(rows, row{name, fmt.Sprintf("%d", v)})
		}
	}
	for name, v := range s.Gauges {
		if v != 0 {
			rows = append(rows, row{name, fmt.Sprintf("%d", v)})
		}
	}
	for name, h := range s.Histograms {
		if h.Count != 0 {
			rows = append(rows, row{name,
				fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d", h.Count, h.Mean(), h.P50, h.P99)})
		}
	}
	if len(rows) == 0 {
		return ""
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	t := stats.NewTable("metric", "value")
	for _, r := range rows {
		t.AddRow(r.name, r.value)
	}
	return t.String()
}
