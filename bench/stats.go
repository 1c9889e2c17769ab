package main

import (
	"math"
	"sort"
	"time"
)

// window is one slice of a pass: a fixed number of ops from the seeded
// stream, timed, with the reference kernel sampled among them.
type window struct {
	mode winMode
	ops  int
	// wall covers the ops and the Syncs the harness issued among them,
	// not the reference bursts.
	wall                 time.Duration
	reads, writes, syncs int
	// readT, writeT, syncT are summed durations of the individual calls.
	readT, writeT, syncT time.Duration
	// ref is the reference kernel as sampled during this window.
	ref refMeter
	// tr holds the span sums of a traced window (zero otherwise).
	tr spanSums
}

// refRTT is the window's yardstick: the mean reference round trip while
// it ran, in seconds.
func (w *window) refRTT() float64 { return w.ref.rtt() }

// opsRel is the window's throughput in ops per reference round trip.
func (w *window) opsRel() (float64, bool) {
	return float64(w.ops) / w.wall.Seconds() * w.refRTT(), w.ops > 0
}

// meanRel is the mean of n calls that took total, in reference round
// trips; ok is false when the window saw no such call.
func (w *window) meanRel(total time.Duration, n int) (float64, bool) {
	if n == 0 {
		return 0, false
	}
	return total.Seconds() / float64(n) / w.refRTT(), true
}

// medianOver evaluates f on every window of the given mode and returns
// the median of the values it reports; 0 when no window reports one.
func medianOver(ws []window, mode winMode, f func(*window) (float64, bool)) float64 {
	vals := make([]float64, 0, len(ws))
	for i := range ws {
		if ws[i].mode != mode {
			continue
		}
		if v, ok := f(&ws[i]); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

// relSum is a time total over the windows of one mode in reference
// round trips: each window's share is divided by that window's own
// yardstick, so a host burst that slows one window slows its yardstick
// with it. Unlike a median it is linear, so layer times built from it
// add up exactly.
func relSum(ws []window, mode winMode, total func(*window) time.Duration) float64 {
	var sum float64
	for i := range ws {
		if w := &ws[i]; w.mode == mode {
			sum += total(w).Seconds() / w.refRTT()
		}
	}
	return sum
}

// countSum is a count total over the windows of one mode.
func countSum(ws []window, mode winMode, count func(*window) int) float64 {
	var sum int
	for i := range ws {
		if w := &ws[i]; w.mode == mode {
			sum += count(w)
		}
	}
	return float64(sum)
}

// normMean is relSum over countSum: a mean in reference round trips.
func normMean(ws []window, mode winMode, total func(*window) time.Duration, count func(*window) int) float64 {
	n := countSum(ws, mode, count)
	if n == 0 {
		return 0
	}
	return relSum(ws, mode, total) / n
}

// medianRef is the run's typical reference round trip in seconds, used
// to turn reference units back into microseconds for human readers.
func medianRef(ws []window) float64 {
	vals := make([]float64, len(ws))
	for i := range ws {
		vals[i] = ws[i].refRTT()
	}
	return median(vals)
}

// disturbedFrac is the share of windows whose reference rate is more
// than 10% under the run's best: how much of the run the host spent
// stealing time.
func disturbedFrac(ws []window) float64 {
	if len(ws) == 0 {
		return 0
	}
	best := math.Inf(1)
	for i := range ws {
		best = math.Min(best, ws[i].refRTT())
	}
	n := 0
	for i := range ws {
		if ws[i].refRTT() > best/0.9 {
			n++
		}
	}
	return float64(n) / float64(len(ws))
}

func median(vals []float64) float64 { return quantileSorted(sortedCopy(vals), 0.5) }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quantileSorted interpolates linearly between the two nearest ranks.
func quantileSorted(s []float64, q float64) float64 {
	return interpolate(s, q*float64(len(s)-1))
}

// interpolate reads sorted s at a fractional 0-based position, clamped
// to its ends; 0 for an empty s.
func interpolate(s []float64, pos float64) float64 {
	switch lo := int(math.Floor(pos)); {
	case len(s) == 0:
		return 0
	case pos <= 0:
		return s[0]
	case lo >= len(s)-1:
		return s[len(s)-1]
	default:
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
}
