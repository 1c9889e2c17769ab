package fpga

import "kona/internal/simclock"

// Adaptive stride prefetching over the shared detector (package prefetch).
// Kona can prefetch across page boundaries because its fills never fault —
// the paper's §3 observation that faults stop hardware prefetchers cold.

// prefetchStride runs the stride prefetcher for a demand fill at `page`,
// issuing background fetches at the demand fetch's start time. With
// batch fetch enabled (TCP transport) the whole window goes out as one
// scatter-gather read per destination node; otherwise each target is
// fetched with its own round trip. Called with no shard lock held (the
// demand fill's intent is executed post-unlock); each target is fetched
// under its own shard's lock, one at a time.
func (f *FPGA) prefetchStride(now simclock.Duration, page uint64) {
	f.front.mu.Lock()
	targets := f.front.stride.Observe(page)
	// Copy out: the detector reuses its target slice, and the fetches
	// below run outside front.mu.
	window := make([]uint64, len(targets))
	copy(window, targets)
	f.front.mu.Unlock()
	if f.batch != nil && len(window) > 1 {
		bs := f.batchPool.Get().(*batchScratch)
		f.collectBatch(bs, window)
		if len(bs.bases) > 1 {
			// Best-effort, like the serial path: a failed window is
			// simply not prefetched. fetchBatch counts Prefetches for
			// each speculative install.
			_, _ = f.fetchBatch(now, bs, true)
			f.batchPool.Put(bs)
			return
		}
		f.batchPool.Put(bs)
	}
	for _, target := range window {
		f.prefetchOne(now, target)
	}
}
