package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []declared
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

type declared struct{ Name, Unit, Better string }

func (d declared) name() string { return d.Name }

// miniature shrinks a workload to about 2 000 ops on a data set that
// loads in milliseconds. The layers it stresses are no longer the real
// workload's, so the fetch bounds are off; everything else — checks,
// protocol, metric names — is the real thing.
func miniature(wl workload) workload {
	if wl.pages > 0 {
		wl.pages = chunkPages
	} else {
		wl.keys = 2000
	}
	wl.windowOps, wl.syncEvery = 200, 100
	wl.nodeBytes = 32 << 20 // a process that builds eight racks must not zero 8 GB
	wl.fetchMin, wl.fetchMax = 0, 0
	return wl
}

func sortedNames[T any](items []T, name func(T) string) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = name(it)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs a miniature of every workload through both passes and
// holds the program to the manifest: no failed op, and exactly the
// declared workload and metric names, with the declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack over loopback TCP")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	want := sortedNames(mf.Workloads, declared.name)
	if have := sortedNames(workloads, func(w workload) string { return w.name }); !reflect.DeepEqual(have, want) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", have, want)
	}
	want = sortedNames(mf.EndToEnd, declared.name)
	if have := sortedNames(endToEnd, func(m gated) string { return m.name }); !reflect.DeepEqual(have, want) {
		t.Fatalf("gated metrics %v, BENCHMARK.json declares %v", have, want)
	}
	for _, m := range mf.EndToEnd {
		for _, g := range endToEnd {
			if g.name == m.Name && g.higher != (m.Better == "higher") {
				t.Errorf("%s: better=%q in BENCHMARK.json, higher=%v in the program", m.Name, m.Better, g.higher)
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runConfig{wl: miniature(wl), seed: 7, seconds: 0.001, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 2000 {
				t.Errorf("%s trace=%v: %d of %d ops failed (%s)", wl.name, trace, res.Failed, res.Attempted, res.why)
			}
			want := mf.EndToEnd
			if trace {
				want = mf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s not emitted", wl.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", wl.name, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, m.Name, got.Value)
				}
			}
		}
	}
}
