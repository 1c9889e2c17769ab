// Command bench is the repository's benchmark: a serial,
// reference-normalised path-length benchmark of the kvd -> Kona ->
// memnode stack (bench/README.md).
//
//	go run ./bench -seed 1                  # the suite: 4 workloads, plain + traced pass
//	go run ./bench -noise 6                 # the noise floor, as in bench/NOISE.md
//	go run ./bench -workload kv-cold -seed 3 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command runs (through
// bench/run.sh, which builds inside the checkout): one workload, one
// pass, one JSON object on the last line of stdout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload and print its JSON result (empty = the whole suite)")
		seed    = flag.Int64("seed", 1, "seed of the op stream")
		seconds = flag.Float64("seconds", 10, "how long one pass measures")
		trace   = flag.Int("trace", 0, "1 = traced pass: per-layer metrics in place of end-to-end ones")
		noise   = flag.Int("noise", 0, "run the untraced suite N times (seeds seed..seed+N-1) and report the noise floor")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *noise < 0 {
		flag.Usage()
		return 2
	}
	switch {
	case *name != "":
		wl, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return runOne(runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1})
	case *noise > 0:
		return runNoise(*noise, *seed, *seconds)
	default:
		return runSuite(*seed, *seconds)
	}
}

// runOne is a single pass in this process.
func runOne(cfg runConfig) int {
	// One P: a client -> kvd -> memnode ping-pong on two Ps is bimodal
	// (cross-vCPU wake-ups), and one P makes layer times additive.
	runtime.GOMAXPROCS(1)
	if cfg.trace {
		cfg.traceFile = filepath.Join("bench", "out", "trace-"+cfg.wl.name+".json")
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.wl.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", cfg.wl.name, res.why)
		return 1
	}
	return 0
}

// runChild runs one pass in a fresh process, so peak RSS, the heap and
// the GC start from the same state every time, as they do under the
// benchmark driver.
func runChild(wl string, seed int64, seconds float64, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: %w", wl, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", wl, err)
	}
	return res, nil
}

// runSuite is the one command that prints every metric by name and
// unit: each workload's plain pass, then its traced pass at a quarter
// of the time.
func runSuite(seed int64, seconds float64) int {
	status := 0
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			secs := seconds
			pass := "end-to-end"
			if trace == 1 {
				secs, pass = seconds/4, "per-layer (traced pass)"
			}
			res, err := runChild(wl.name, seed, secs, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				status = 1
				continue
			}
			fmt.Printf("%s  seed %d  %s  attempted %d  failed %d\n", wl.name, seed, pass, res.Attempted, res.Failed)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("  %-38s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
			}
		}
	}
	return status
}
