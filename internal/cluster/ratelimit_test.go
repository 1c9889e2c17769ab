package cluster

import (
	"testing"
	"time"
)

// fakeBudget returns a budget on a fake injectable clock; sleeps advance
// the clock and accumulate in *slept.
func fakeBudget(t *testing.T, rate, burst float64, clock *time.Time, slept *time.Duration) *byteBudget {
	t.Helper()
	b := newByteBudget(rate, burst)
	b.now = func() time.Time { return *clock }
	b.sleep = func(d time.Duration) {
		if d < 0 {
			t.Fatalf("negative sleep %v", d)
		}
		*slept += d
		*clock = clock.Add(d)
	}
	return b
}

// TestByteBudgetZeroRate pins the disabled configuration: rate 0 (the
// "-budget 0 = unlimited" flag value) must never sleep and never panic,
// whatever the take sizes.
func TestByteBudgetZeroRate(t *testing.T) {
	b := newByteBudget(0, 0)
	b.sleep = func(d time.Duration) { t.Fatalf("zero-rate budget slept %v", d) }
	b.take(0)
	b.take(-1)
	for i := 0; i < 16; i++ {
		b.take(1 << 30)
	}
}

// TestByteBudgetZeroAndNegativeTakes: a take of zero or negative bytes
// is a no-op even on a tiny limited budget — it must neither sleep nor
// consume tokens.
func TestByteBudgetZeroAndNegativeTakes(t *testing.T) {
	clock := time.Unix(0, 0)
	var slept time.Duration
	b := fakeBudget(t, 1024, 1024, &clock, &slept)
	for i := 0; i < 1000; i++ {
		b.take(0)
		b.take(-4096)
	}
	if slept != 0 {
		t.Fatalf("no-op takes slept %v", slept)
	}
	// The burst is still intact: a full-burst take goes through free.
	b.take(1024)
	if slept != 0 {
		t.Fatalf("burst consumed by no-op takes (slept %v)", slept)
	}
}

// TestByteBudgetBurstAfterIdle is the token-cap edge case: a long idle
// period must not bank unbounded credit. After an hour of silence the
// bucket holds exactly one burst — the next burst is free, but the take
// after it pays the full deficit at the configured rate.
func TestByteBudgetBurstAfterIdle(t *testing.T) {
	const rate, burst = 1 << 20, 64 << 10
	clock := time.Unix(0, 0)
	var slept time.Duration
	b := fakeBudget(t, rate, burst, &clock, &slept)

	// Drain the initial burst, then idle for an hour.
	b.take(burst)
	if slept != 0 {
		t.Fatalf("initial burst slept %v", slept)
	}
	clock = clock.Add(time.Hour)

	// One burst of credit accrued — not an hour's worth (3.6GB).
	b.take(burst)
	if slept != 0 {
		t.Fatalf("post-idle burst slept %v, want free", slept)
	}
	b.take(burst)
	want := time.Duration(float64(burst) / rate * float64(time.Second))
	if slept < want-time.Millisecond || slept > want+time.Millisecond {
		t.Fatalf("second post-idle burst slept %v, want ~%v (idle banked extra credit)", slept, want)
	}
}

// TestByteBudgetFrozenClock: with a clock that never advances on its own
// (only sleeps move it), the budget must still pace correctly — total
// slept time for N bytes beyond the burst is exactly N/rate. This pins
// the sleep-refills-tokens contract the replacement engine's copies rely
// on when they saturate a budget.
func TestByteBudgetFrozenClock(t *testing.T) {
	const rate, burst = 1 << 20, 32 << 10
	clock := time.Unix(0, 0)
	var slept time.Duration
	b := fakeBudget(t, rate, burst, &clock, &slept)

	total := 0
	for i := 0; i < 100; i++ {
		b.take(16 << 10)
		total += 16 << 10
	}
	want := time.Duration(float64(total-burst) / rate * float64(time.Second))
	if slept < want-time.Millisecond || slept > want+time.Millisecond {
		t.Fatalf("slept %v for %d bytes at %d B/s with %d burst, want ~%v", slept, total, rate, burst, want)
	}
}

// TestByteBudgetDefaultBurst: an unset burst defaults to 100ms of
// traffic, so a freshly constructed budget absorbs exactly rate/10 bytes
// before pacing kicks in.
func TestByteBudgetDefaultBurst(t *testing.T) {
	const rate = 10 << 20
	clock := time.Unix(0, 0)
	var slept time.Duration
	b := fakeBudget(t, rate, 0, &clock, &slept)

	b.take(rate / 10)
	if slept != 0 {
		t.Fatalf("default burst smaller than 100ms of traffic (slept %v)", slept)
	}
	b.take(1 << 10)
	if slept == 0 {
		t.Fatalf("take beyond the default burst did not pace")
	}
}
