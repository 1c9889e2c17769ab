// Package telemetry is the runtime observability layer (DESIGN.md §7):
// atomic counters, gauges and fixed-bucket histograms behind a Registry,
// plus a bounded structured-event ring (Trace) for annotated runtime
// events. Every component of the data path — the FPGA caching handler,
// the evictor, the cluster transport, the simulators — reports into a
// Registry it is handed at construction time.
//
// Two properties shape the design:
//
//   - Zero hot-path cost when disabled. A nil *Registry hands out nil
//     metric handles, and every handle method nil-checks its receiver, so
//     a component instrumented against a disabled registry pays one
//     pointer comparison per site (the benchmarks in cachesim and cluster
//     pin this under 2%). Components should resolve their handles once at
//     construction, never per operation.
//
//   - No dependencies beyond the standard library. The registry is
//     consumed by everything (core, cluster, the simulators, the
//     daemons), so it must sit at the bottom of the import graph.
//
// Counters are cache-line padded so two hot counters incremented from
// different goroutines do not false-share. Histograms are fixed-bucket:
// an Observe is one atomic add into a bucket chosen by binary search over
// the (immutable) bounds, with no locks and no allocation.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic event count. The padding keeps independent
// counters on separate cache lines (an atomic add invalidates the whole
// line on every other core).
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Store overwrites the counter — the publish path for components that
// keep their own cheap private counters (the simulators) and sync them
// into the registry at batch boundaries. Safe on a nil receiver.
func (c *Counter) Store(v uint64) {
	if c != nil {
		c.v.Store(v)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed level (in-flight requests, pool
// occupancy). Padded like Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores the level. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the level by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc raises the level by one. Safe on a nil receiver.
func (g *Gauge) Inc() { g.Add(1) }

// Dec lowers the level by one. Safe on a nil receiver.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram distributes observations into fixed buckets. bounds[i] is the
// inclusive upper bound of bucket i; one overflow bucket catches the rest.
// Observations are lock-free: a binary search over the immutable bounds
// plus one atomic increment.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records one observation. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Smallest i with bounds[i] >= v; len(bounds) = overflow.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// ExpBounds builds n histogram bounds growing geometrically from start by
// factor — the usual shape for latency buckets.
func ExpBounds(start int64, factor float64, n int) []int64 {
	out := make([]int64, 0, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		out = append(out, int64(v))
		v *= factor
	}
	return out
}

// Registry names and owns a process's metrics. The zero value is not
// useful; use New. A nil *Registry is the disabled state: it hands out
// nil handles and empty snapshots, so instrumented components need no
// enabled/disabled branches of their own.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    *Trace
}

// New returns an enabled registry with a bounded event ring of the given
// capacity (<= 0 uses 4096 events).
func New(traceCap int) *Registry {
	if traceCap <= 0 {
		traceCap = 4096
	}
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		trace:    NewTrace(traceCap),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls reuse the first bounds). Returns nil
// on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]int64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h = &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Trace returns the registry's event ring (nil on a nil registry; Trace
// methods are nil-safe, so callers emit unconditionally).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	// Bounds[i] is the inclusive upper bound of Counts[i]; the final
	// Counts entry is the overflow bucket.
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// Mean returns the average observation, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the upper bound of the bucket holding the q-th
// quantile (the overflow bucket reports the largest bound). The quantile
// is the nearest-rank observation, rank ⌈q·n⌉: the smallest value v with
// P(X ≤ v) ≥ q, as stats.CDF.Quantile defines it.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := max(uint64(math.Ceil(q*float64(h.Count))), 1)
	var cum uint64
	for i, n := range h.Counts {
		cum += n
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a consistent-enough copy of a registry: counters and gauges
// are read atomically one by one (the registry never blocks writers).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric's current value. On a nil registry it
// returns an empty (but usable) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Bounds: h.bounds,
			Counts: make([]uint64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// Delta returns this snapshot minus prev: counter differences (clamped at
// zero), current gauge levels, and histogram count/sum differences.
// kona-bench -telemetry uses it for per-artifact attribution.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for name, v := range s.Counters {
		if p := prev.Counters[name]; v > p {
			out.Counters[name] = v - p
		}
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		if h.Count <= p.Count {
			continue
		}
		d := HistogramSnapshot{
			Count:  h.Count - p.Count,
			Sum:    h.Sum - p.Sum,
			Bounds: h.Bounds,
			Counts: make([]uint64, len(h.Counts)),
		}
		for i := range h.Counts {
			if i < len(p.Counts) && h.Counts[i] >= p.Counts[i] {
				d.Counts[i] = h.Counts[i] - p.Counts[i]
			} else {
				d.Counts[i] = h.Counts[i]
			}
		}
		out.Histograms[name] = d
	}
	return out
}

// Text renders the snapshot as sorted "name value" lines — the format
// served at /metrics (and grep-able in soak logs). Histograms render as
// count/mean/p50/p99 derived lines.
func (s Snapshot) Text() string {
	var b strings.Builder
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+4*len(s.Histograms))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s.count %d", name, h.Count),
			fmt.Sprintf("%s.mean %.1f", name, h.Mean()),
			fmt.Sprintf("%s.p50 %d", name, h.Quantile(0.50)),
			fmt.Sprintf("%s.p99 %d", name, h.Quantile(0.99)),
		)
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON — the format served at
// /metrics?format=json.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
