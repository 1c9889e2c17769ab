package main

import (
	"math"
	"testing"
	"time"
)

// synthRun fabricates the windows of a run whose true cost is constant
// — costRel reference round trips per op — on a host whose speed varies:
// slow(i) is the factor by which window i (and the reference runs around
// it) is slowed. It returns the windows and the raw mean op time.
func synthRun(n int, costRel float64, slow func(i int) float64) ([]window, float64) {
	const baseRef = 10 * time.Microsecond
	const ops = 8192
	ws := make([]window, n)
	var rawTotal time.Duration
	for i := range ws {
		ref := time.Duration(float64(baseRef) * slow(i))
		opTime := time.Duration(costRel * float64(ref))
		total := opTime * ops
		ws[i] = window{mode: modePlain, ops: ops, wall: total, reads: ops, readT: total,
			ref: refMeter{total: ref * ops / 4, n: ops / 4}}
		rawTotal += total
	}
	return ws, rawTotal.Seconds() / float64(n*ops)
}

func relEstimate(ws []window) (readRel, opsRel float64) {
	readRel = medianOver(ws, modePlain, func(w *window) (float64, bool) { return w.meanRel(w.readT, w.reads) })
	opsRel = medianOver(ws, modePlain, (*window).opsRel)
	return
}

func relChange(a, b float64) float64 { return math.Abs(b/a - 1) }

// The host steals time in multi-second bursts, always downward: a
// plateau with dips. The raw mean follows the dips; the estimate in
// reference round trips must not.
func TestRelEstimateIgnoresOneSidedDips(t *testing.T) {
	quiet, rawQuiet := synthRun(40, 2.5, func(int) float64 { return 1 })
	// Two dips of 6 and 5 windows (seconds, at 0.25 s a window) at 1.55x.
	dipped, rawDipped := synthRun(40, 2.5, func(i int) float64 {
		if (i >= 8 && i < 14) || (i >= 27 && i < 32) {
			return 1.55
		}
		return 1
	})
	if c := relChange(rawQuiet, rawDipped); c < 0.15 {
		t.Fatalf("raw mean moved %.1f%%; the series should disturb it by more than 15%%", 100*c)
	}
	rq, oq := relEstimate(quiet)
	rd, od := relEstimate(dipped)
	if c := relChange(rq, rd); c > 0.02 {
		t.Errorf("read_mean_rel moved %.2f%% under dips, want < 2%%", 100*c)
	}
	if c := relChange(oq, od); c > 0.02 {
		t.Errorf("ops_rel moved %.2f%% under dips, want < 2%%", 100*c)
	}
	if got := disturbedFrac(dipped); math.Abs(got-11.0/40) > 1e-9 {
		t.Errorf("disturbedFrac = %v, want 11/40", got)
	}
	if got := disturbedFrac(quiet); got != 0 {
		t.Errorf("disturbedFrac of a quiet run = %v, want 0", got)
	}
}

// A run on a host twice as slow throughout must read the same in
// reference round trips.
func TestRelEstimateIgnoresUniformSlowdown(t *testing.T) {
	fast, rawFast := synthRun(40, 3.5, func(int) float64 { return 1 })
	slow, rawSlow := synthRun(40, 3.5, func(int) float64 { return 2 })
	if c := relChange(rawFast, rawSlow); c < 0.15 {
		t.Fatalf("raw mean moved only %.1f%%", 100*c)
	}
	rf, of := relEstimate(fast)
	rs, os := relEstimate(slow)
	if relChange(rf, rs) > 0.02 || relChange(of, os) > 0.02 {
		t.Errorf("estimate moved under a uniform 2x slowdown: read %v -> %v, ops %v -> %v", rf, rs, of, os)
	}
	if math.Abs(rf-3.5) > 0.01 {
		t.Errorf("read_mean_rel = %v, want the true cost 3.5", rf)
	}
}

// The yardstick of a window is the mean of the round trips sampled
// inside it, whatever the burst pattern.
func TestWindowRef(t *testing.T) {
	var m refMeter
	m.total, m.n = 36*time.Microsecond, 3
	w := window{ops: 100, wall: time.Millisecond, ref: m}
	if got := w.refRTT(); math.Abs(got-12e-6) > 1e-12 {
		t.Errorf("refRTT = %v, want 12µs", got)
	}
	if _, ok := w.meanRel(0, 0); ok {
		t.Error("meanRel reported a value for a window with no such call")
	}
	if got, _ := w.opsRel(); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("opsRel = %v, want 100 ops/ms x 12 µs = 1.2", got)
	}
}

// normMean must be linear — layer times built from it add up — and must
// weight each window by its own yardstick.
func TestNormMeanAddsUp(t *testing.T) {
	ws, _ := synthRun(12, 2, func(i int) float64 { return 1 + float64(i%3)/2 })
	for i := range ws {
		ws[i].writes, ws[i].writeT = ws[i].ops/4, ws[i].readT/3
	}
	count := func(w *window) int { return w.ops }
	a := normMean(ws, modePlain, func(w *window) time.Duration { return w.readT }, count)
	b := normMean(ws, modePlain, func(w *window) time.Duration { return w.writeT }, count)
	both := normMean(ws, modePlain, func(w *window) time.Duration { return w.readT + w.writeT }, count)
	if math.Abs(a+b-both) > 1e-9 {
		t.Errorf("normMean is not additive: %v + %v != %v", a, b, both)
	}
	if math.Abs(a-2) > 0.001 {
		t.Errorf("normMean = %v, want the true cost 2 whatever the host speed", a)
	}
	if got := normMean(ws, modeTraced, func(w *window) time.Duration { return w.readT }, count); got != 0 {
		t.Errorf("normMean over no windows = %v, want 0", got)
	}
}

func TestMedianAndQuantiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	s := []float64{10, 20, 30, 40, 50}
	if got := quantileSorted(s, 0.99); math.Abs(got-49.6) > 1e-9 {
		t.Errorf("p99 = %v, want 49.6", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(ten); math.Abs(got-(8.25-2.75)/5.5) > 1e-9 {
		t.Errorf("iqrShare = %v, want 1.0", got)
	}
}

// The reference kernel must check what it echoes and report a plausible
// round trip.
func TestRefKernel(t *testing.T) {
	r, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	total, err := r.run(200)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || total > 10*time.Second {
		t.Errorf("200 round trips in %v is not plausible for loopback", total)
	}
	var m refMeter
	for i := 0; i < 2*refEvery; i++ {
		if err := m.tick(r, i); err != nil {
			t.Fatal(err)
		}
	}
	if m.n != 2*refBurst || m.rtt() <= 0 {
		t.Errorf("meter sampled %d round trips (rtt %v), want %d", m.n, m.rtt(), 2*refBurst)
	}
	if want := uint64(200 + 2*refBurst); r.seq != want {
		t.Errorf("kernel did %d round trips, want %d", r.seq, want)
	}
	if err := r.close(); err != nil {
		t.Errorf("echo goroutine: %v", err)
	}
}
