package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
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
	h := r.Histogram("z", ExpBounds(1, 2, 8))
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
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 11, 50, 100, 500, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	// Buckets: <=10 holds {1,5,10}; <=100 holds {11,50,100}; <=1000 holds
	// {500}; overflow holds {5000}.
	want := []uint64{3, 3, 1, 1}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], n, s.Counts)
		}
	}
	if s.Sum != 5677 {
		t.Fatalf("sum = %d, want 5677", s.Sum)
	}
	if q := s.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100", q)
	}
	if q := s.Quantile(0.99); q != 1000 {
		t.Fatalf("p99 = %d (overflow reports max bound 1000), got wrong", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", q)
	}
}

// A quantile is the nearest-rank observation, rank ⌈q·n⌉: of 150
// observations p99 is the 149th, which lies in the ≤ 100 bucket, not the
// 148th (⌊q·n⌋), the last one ≤ 10.
func TestHistogramQuantileIsNearestRank(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat", []int64{10, 100})
	for i := 0; i < 148; i++ {
		h.Observe(5)
	}
	h.Observe(50)
	h.Observe(50)
	s := r.Snapshot().Histograms["lat"]
	if q := s.Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %d, want 100", q)
	}
	if q := s.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %d, want 10", q)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := New(0)
	c := r.Counter("c")
	h := r.Histogram("h", ExpBounds(1, 10, 4))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
				r.Trace().Emit("tick", "")
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
	h := r.Histogram("lat", []int64{10, 100})
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
	if hd.Count != 2 || hd.Sum != 100 || hd.Counts[1] != 2 {
		t.Fatalf("delta histogram = %+v", hd)
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
	reg.Histogram("rpc.lat_us", ExpBounds(1, 4, 6)).Observe(12)
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
	if snap.Histograms["rpc.lat_us"].Count != 1 {
		t.Fatalf("json histogram missing")
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
