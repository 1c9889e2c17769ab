package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"kona/internal/stats"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New(0)
	c := r.Counter("fetches")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("fetches") != c {
		t.Fatalf("same name returned a different counter")
	}
	g := r.Gauge("inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
}

func TestNilRegistryIsSafeEverywhere(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	c.Store(3)
	if c.Value() != 0 {
		t.Fatalf("nil counter has a value")
	}
	g := r.Gauge("y")
	g.Set(1)
	g.Add(2)
	g.Dec()
	if g.Value() != 0 {
		t.Fatalf("nil gauge has a value")
	}
	h := r.Histogram("z")
	h.Observe(42)
	if h.Count() != 0 {
		t.Fatalf("nil histogram counted")
	}
	tr := r.Trace()
	tr.Emit("e", "detail")
	tr.EmitAt(5, "e2", "")
	if tr.Len() != 0 || tr.Total() != 0 || tr.Events() != nil {
		t.Fatalf("nil trace retained events")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty")
	}
	if s.Text() != "" {
		t.Fatalf("nil registry text not empty")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat")
	for _, v := range []int64{1, 5, 10, 11, 50, 100, 500, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if s.Sum != 5677 {
		t.Fatalf("sum = %d, want 5677", s.Sum)
	}
	// Rank 4 of 8 is 11, below 64 and so exact; rank 8 is 5000, whose
	// bucket [4992, 5056) is one of 64 cutting [4096, 8192).
	if s.P50 != 11 {
		t.Fatalf("p50 = %d, want 11", s.P50)
	}
	if s.P99 < 4992 || s.P99 >= 5056 || s.P999 != s.P99 {
		t.Fatalf("p99 = %d, p999 = %d; want one value in [4992, 5056)", s.P99, s.P999)
	}
	if q := h.Quantile(0.99); q != s.P99 {
		t.Fatalf("live p99 = %d, snapshot p99 = %d", q, s.P99)
	}
	if q := r.Histogram("empty").Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", q)
	}
	if s := r.Snapshot().Histograms["empty"]; s.P50 != 0 || s.P99 != 0 || s.P999 != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
}

// A quantile is the nearest-rank observation, rank ⌈q·n⌉: of 150
// observations p99 is the 149th, 50, not the 148th (⌊q·n⌋), 5.
func TestHistogramQuantileIsNearestRank(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat")
	for i := 0; i < 148; i++ {
		h.Observe(5)
	}
	h.Observe(50)
	h.Observe(50)
	s := r.Snapshot().Histograms["lat"]
	if s.P99 != 50 {
		t.Fatalf("p99 = %d, want 50", s.P99)
	}
	if s.P50 != 5 {
		t.Fatalf("p50 = %d, want 5", s.P50)
	}
}

// Below 64 every quantile is the observation itself.
func TestHistogramExactBelow64(t *testing.T) {
	h := New(0).Histogram("lat")
	for v := int64(63); v >= 0; v-- {
		h.Observe(v)
	}
	for rank := 1; rank <= 64; rank++ {
		if q := h.Quantile(float64(rank) / 64); q != int64(rank-1) {
			t.Fatalf("quantile of rank %d = %d, want %d", rank, q, rank-1)
		}
	}
}

// Every value below 2^22 lands in a bucket that holds it, one value wide
// below 128 and at most 1/64 of its lower bound wide above.
func TestHistogramLayout(t *testing.T) {
	if histBuckets != 2240 {
		t.Fatalf("%d buckets, want 2240", histBuckets)
	}
	prev := -1
	for v := int64(0); v < 1<<22; v++ {
		i := bucketOf(v)
		lo, w := bucketSpan(i)
		if v < lo || v >= lo+w {
			t.Fatalf("%d landed in bucket %d = [%d, %d)", v, i, lo, lo+w)
		}
		if w > 1 && w*64 > lo {
			t.Fatalf("bucket %d = [%d, %d) is wider than 1/64 of %d", i, lo, lo+w, lo)
		}
		if i != prev && i != prev+1 {
			t.Fatalf("%d landed in bucket %d after bucket %d", v, i, prev)
		}
		prev = i
	}
	if lo, w := bucketSpan(histBuckets - 1); lo+w != 1<<histTopBit {
		t.Fatalf("top bucket ends at %d, want 2^40", lo+w)
	}
}

// Quantiles of seeded lognormal samples are within 1/64 of the exact
// nearest-rank values stats.CDF.Quantile computes from every sample.
func TestHistogramQuantilesWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r := New(0)
		h := r.Histogram("lat")
		cdf := stats.NewCDF()
		mu := 4 + float64(trial)/2 // medians from ~55 to ~8 000
		for i := 0; i < 5000; i++ {
			v := int64(math.Exp(mu + 1.5*rng.NormFloat64()))
			h.Observe(v)
			cdf.Add(int(v))
		}
		s := r.Snapshot().Histograms["lat"]
		for _, c := range []struct {
			q   float64
			got int64
		}{{0.5, s.P50}, {0.9, h.Quantile(0.9)}, {0.99, s.P99}, {0.999, s.P999}} {
			exact := float64(cdf.Quantile(c.q))
			if err := math.Abs(float64(c.got) - exact); err > exact/64 || (exact < 64 && err != 0) {
				t.Errorf("trial %d: p%g = %d, exact %g (error %g, bound %g)", trial, 100*c.q, c.got, exact, err, exact/64)
			}
		}
	}
}

// A 50 ms observation in µs reads back within 1/64 (a 1µs..32ms layout
// capped it at 32 768), and a value past 2^40 lands in the top bucket
// with its sum exact.
func TestHistogramWideValues(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat_us")
	h.Observe(50_000)
	if q := h.Quantile(0.5); math.Abs(float64(q)-50_000) > 50_000.0/64 {
		t.Fatalf("50 ms observation reads back as %d µs", q)
	}
	big := int64(1) << 50
	h.Observe(big)
	if i := bucketOf(big); i != histBuckets-1 {
		t.Fatalf("2^50 landed in bucket %d, want the top one", i)
	}
	if s := r.Snapshot().Histograms["lat_us"]; s.Sum != 50_000+big || s.Count != 2 {
		t.Fatalf("sum = %d, count = %d; want %d, 2", s.Sum, s.Count, 50_000+big)
	}
}

func TestHistogramObserveAllocatesNothing(t *testing.T) {
	h := New(0).Histogram("lat")
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() { v += 977; h.Observe(v) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New(0).Histogram("lat")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i&0xfffff) * 997)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := New(0)
	c := r.Counter("c")
	h := r.Histogram("h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
				r.Trace().Emit("tick", "")
				if j%100 == 0 { // quantiles computed while others observe
					if s := r.Snapshot().Histograms["h"]; s.P999 >= 1000 {
						t.Errorf("mid-run snapshot p999 = %d, above every observation", s.P999)
					}
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if r.Trace().Total() != 8000 {
		t.Fatalf("trace total = %d, want 8000", r.Trace().Total())
	}
}

func TestTraceRingBoundsAndOrder(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.EmitAt(0, "e", strings.Repeat("x", i))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := New(0)
	c := r.Counter("ops")
	h := r.Histogram("lat")
	c.Add(3)
	h.Observe(5)
	before := r.Snapshot()
	c.Add(7)
	h.Observe(50)
	h.Observe(50)
	r.Gauge("level").Set(2)
	d := r.Snapshot().Delta(before)
	if d.Counters["ops"] != 7 {
		t.Fatalf("delta ops = %d, want 7", d.Counters["ops"])
	}
	if d.Gauges["level"] != 2 {
		t.Fatalf("delta gauge = %d, want 2", d.Gauges["level"])
	}
	hd := d.Histograms["lat"]
	if hd != (HistogramSnapshot{Count: 2, Sum: 100}) {
		t.Fatalf("delta histogram = %+v, want count and sum only", hd)
	}
	// Unchanged metrics drop out of the delta entirely.
	c2 := r.Counter("idle")
	c2.Add(1)
	s1 := r.Snapshot()
	d2 := r.Snapshot().Delta(s1)
	if _, ok := d2.Counters["idle"]; ok {
		t.Fatalf("unchanged counter survived the delta")
	}
}

func TestTextRendering(t *testing.T) {
	r := New(0)
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("z.level").Set(-3)
	txt := r.Snapshot().Text()
	want := "a.count 1\nb.count 2\nz.level -3\n"
	if txt != want {
		t.Fatalf("text = %q, want %q", txt, want)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := New(16)
	reg.Counter("core.fetches").Add(9)
	reg.Gauge("cluster.inflight").Set(1)
	reg.Histogram("rpc.lat_us").Observe(12)
	reg.Trace().EmitAt(77, "fetch.start", "page=0x1000")

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	txt := string(get("/metrics"))
	if !strings.Contains(txt, "core.fetches 9") || !strings.Contains(txt, "rpc.lat_us.count 1") {
		t.Fatalf("text metrics missing lines:\n%s", txt)
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics?format=json"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["core.fetches"] != 9 || snap.Gauges["cluster.inflight"] != 1 {
		t.Fatalf("json snapshot wrong: %+v", snap)
	}
	if h := snap.Histograms["rpc.lat_us"]; h.Count != 1 || h.P50 != 12 || h.P999 != 12 {
		t.Fatalf("json histogram = %+v, want one observation of 12", h)
	}

	var evs []Event
	if err := json.Unmarshal(get("/debug/events"), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Name != "fetch.start" || evs[0].Virtual != 77 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestServeNilRegistry(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("nil registry /metrics status %d", resp.StatusCode)
	}
}

// The metrics endpoint serves the Go runtime's profiles too, so a daemon
// started with -metrics-addr can be profiled live; the handlers sit on the
// endpoint's own mux, not on http.DefaultServeMux.
func TestServeProfiles(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}
