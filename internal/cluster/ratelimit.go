package cluster

import "time"

// byteBudget is a token-bucket rate limiter for replacement copy traffic:
// the engine takes tokens per copied batch and sleeps out any deficit, so
// a background repair or migration never exceeds its configured bytes/sec
// share of the fabric and cannot starve fetch/evict (the Aceso-style
// "repair without hurting the data path" discipline).
//
// The clock and sleeper are injectable so unit tests run on a fake
// timeline.
type byteBudget struct {
	rate  float64 // tokens (bytes) per second
	burst float64 // bucket capacity

	tokens float64
	last   time.Time

	now   func() time.Time
	sleep func(time.Duration)
}

// newByteBudget returns a budget of rate bytes/sec with a one-interval
// burst. rate <= 0 means unlimited.
func newByteBudget(rate float64, burst float64) *byteBudget {
	b := &byteBudget{
		rate:  rate,
		burst: burst,
		now:   time.Now,
		sleep: time.Sleep,
	}
	if b.burst <= 0 {
		b.burst = rate / 10 // default: 100ms worth of traffic
	}
	b.tokens = b.burst
	return b
}

// take consumes n bytes of budget, sleeping until the bucket can cover
// the deficit. Not safe for concurrent use; the replacement engine is a
// single goroutine.
func (b *byteBudget) take(n int) {
	if b.rate <= 0 || n <= 0 {
		return
	}
	t := b.now()
	if !b.last.IsZero() {
		b.tokens += t.Sub(b.last).Seconds() * b.rate
	}
	b.last = t
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.tokens -= float64(n)
	if b.tokens < 0 {
		// Sleep out the deficit; tokens refill on the next take.
		d := time.Duration(-b.tokens / b.rate * float64(time.Second))
		b.sleep(d)
	}
}
