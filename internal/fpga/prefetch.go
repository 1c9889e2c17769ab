package fpga

import "kona/internal/simclock"

// Adaptive stride prefetching over the shared detector (package prefetch).
// Kona can prefetch across page boundaries because its fills never fault —
// the paper's §3 observation that faults stop hardware prefetchers cold.

// prefetchStride runs the stride prefetcher for a demand fill at `page`,
// issuing background fetches at the demand fetch's start time, one round
// trip per target. Called with no shard lock held (the demand fill's intent
// is executed post-unlock); each target is fetched under its own shard's
// lock, one at a time.
func (f *FPGA) prefetchStride(now simclock.Duration, page uint64) {
	f.front.mu.Lock()
	targets := f.front.stride.Observe(page)
	// Copy out: the detector reuses its target slice, and the fetches
	// below run outside front.mu.
	window := make([]uint64, len(targets))
	copy(window, targets)
	f.front.mu.Unlock()
	for _, target := range window {
		f.prefetchOne(now, target)
	}
}
