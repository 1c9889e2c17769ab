// Package telemetry is the runtime observability layer (DESIGN.md §7):
// atomic counters, gauges and log-linear histograms behind a Registry,
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
// different goroutines do not false-share. Every histogram has the same
// log-linear layout, so a reported quantile is a measured value within
// 1/64, not a bucket edge; an Observe picks its bucket with a bit length
// and a shift and takes no lock and no allocation.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math/bits"
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

// Histogram layout (one for every histogram, HdrHistogram's log-linear
// shape): values below 64 get one bucket each, each power of two from 64
// up is cut into 64 equal buckets, so no bucket is wider than 1/64 of its
// lower bound, and values at or above 2^40 share the top bucket. 2 240
// buckets, 17.9 KB per histogram.
const (
	histSubBits = 6
	histTopBit  = 40
	histBuckets = (histTopBit - histSubBits + 1) << histSubBits
)

// Histogram counts observations in the fixed log-linear layout above.
// Observations are lock-free: a bit length, a shift and atomic adds.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// bucketOf returns the bucket holding v (negative values land in bucket 0).
func bucketOf(v int64) int {
	if v >= 1<<histTopBit {
		return histBuckets - 1
	}
	u := uint64(max(v, 0))
	s := max(bits.Len64(u)-histSubBits-1, 0)
	return s<<histSubBits + int(u>>s)
}

// bucketSpan returns bucket i's lowest value and width.
func bucketSpan(i int) (lo, width int64) {
	s := max(i>>histSubBits-1, 0)
	return int64(i-s<<histSubBits) << s, 1 << s
}

// Observe records one observation. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
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

// Quantile returns the nearest-rank q-quantile of the observations so
// far: the observation of rank ⌈q·n⌉, the smallest value v with
// P(X ≤ v) ≥ q, as stats.CDF.Quantile defines it, placed by its rank
// inside its bucket — exact below 64, within 1/64 above (up to 2^40).
// 0 with no observations or a nil receiver.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.quantile(q, h.count.Load())
}

// quantile is Quantile over the first n observations counted. Observe adds
// to a bucket before the count, so the buckets, read after n, hold them.
func (h *Histogram) quantile(q float64, n uint64) int64 {
	x := q * float64(n)
	rank := uint64(x)
	if float64(rank) < x {
		rank++ // ⌈x⌉
	}
	rank = min(max(rank, 1), n)
	var cum uint64
	for i := 0; n > 0 && i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if cum+c >= rank {
			lo, w := bucketSpan(i)
			return lo + int64(float64(w)*(float64(rank-cum)-0.5)/float64(c))
		}
		cum += c
	}
	return 0
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

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
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

// HistogramSnapshot is one histogram's state at snapshot time. The
// quantiles are nearest-rank values, exact below 64 and within 1/64 above
// (Histogram.Quantile); a Delta carries none.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	P50   int64  `json:"p50"`
	P99   int64  `json:"p99"`
	P999  int64  `json:"p999"`
}

// Mean returns the average observation, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
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
		n := h.count.Load()
		s.Histograms[name] = HistogramSnapshot{
			Count: n,
			Sum:   h.sum.Load(),
			P50:   h.quantile(0.50, n),
			P99:   h.quantile(0.99, n),
			P999:  h.quantile(0.999, n),
		}
	}
	return s
}

// Delta returns this snapshot minus prev: counter differences (clamped at
// zero), current gauge levels, and histogram count/sum differences (no
// quantiles: a difference of two snapshots holds no distribution). The
// benchmark uses it to attribute counts to its measured window.
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
		out.Histograms[name] = HistogramSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
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
			fmt.Sprintf("%s.p50 %d", name, h.P50),
			fmt.Sprintf("%s.p99 %d", name, h.P99),
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
