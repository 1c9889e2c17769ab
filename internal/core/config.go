// Package core implements KLib, the Kona runtime (§4): the Resource
// Manager that pre-allocates disaggregated memory in slabs, the Caching
// Handler (the FPGA model's line-fill path), the Dirty Data Tracker (the
// FPGA's writeback-driven bitmaps) and the Eviction Handler (the cache-line
// log). KLib's Poller is not a component here: each link consumes its own
// completions inline — the RDMA link polls its queue pair right after each
// post, the TCP links block on the reply. It also implements Kona-VM, the
// paper's own virtual-memory baseline, sharing the same caching and
// eviction policy so comparisons isolate the tracking mechanism (§6.1).
package core

import (
	"runtime"
	"time"

	"kona/internal/simclock"
	"kona/internal/slab"
	"kona/internal/telemetry"
)

// Config sizes a Kona runtime instance.
type Config struct {
	// LocalCacheBytes is the compute node's DRAM cache capacity: FMem for
	// Kona, the CMem page cache for Kona-VM.
	LocalCacheBytes uint64
	// SlabSize is the coarse allocation unit requested from the
	// controller.
	SlabSize uint64
	// Replicas is the number of memory-node copies kept per slab (§4.5);
	// 1 means no replication.
	Replicas int
	// LogBytes is the eviction ring-buffer capacity. Smaller logs flush
	// more often (more RDMA verbs), larger logs delay remote visibility.
	LogBytes int
	// FlushThreshold triggers a log flush when the buffered payload
	// exceeds this many bytes. Defaults to LogBytes/4.
	FlushThreshold int
	// PrefetchDepth sets the FPGA's prefetcher: 0 off, 1 sequential
	// next-page prefetch, more than 1 the adaptive stride prefetcher capped
	// at that depth (see fpga.Config).
	PrefetchDepth int
	// FetchBytes is the remote fetch granularity, 64B..4KB (0 = 4KB, the
	// paper's choice; §4.4 "Kona can choose the data movement size
	// between page and cache-line granularity").
	FetchBytes uint64
	// Shards is the lock-stripe count for the concurrent data path: FMem
	// frame state and the eviction handler's append side are partitioned
	// into this many independently locked shards (DESIGN.md §9). Rounded
	// up to a power of two and clamped to the FMem set count. 0 derives it
	// from GOMAXPROCS; 1 yields the fully serial pre-concurrency layout.
	// Sharding changes lock granularity only — for a fixed seed the
	// virtual-time results are identical at any value.
	Shards int
	// Metrics receives the runtime's telemetry (DESIGN.md §7): live
	// gauges and annotated trace events on the bounded ring, and
	// fetch/eviction/writeback counts published at Sync, Close and
	// PublishTelemetry, summed over the runtimes sharing the registry.
	// nil — the default — disables instrumentation at the cost of one nil
	// check per site.
	Metrics *telemetry.Registry
}

// DefaultConfig returns a runtime sized for the given local cache.
func DefaultConfig(localCacheBytes uint64) Config {
	return Config{
		LocalCacheBytes: localCacheBytes,
		SlabSize:        slab.DefaultSlabSize,
		Replicas:        1,
		LogBytes:        256 << 10,
		PrefetchDepth:   1,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SlabSize == 0 {
		c.SlabSize = slab.DefaultSlabSize
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.LogBytes == 0 {
		c.LogBytes = 256 << 10
	}
	if c.FlushThreshold == 0 {
		c.FlushThreshold = c.LogBytes / 4
	}
	if c.Shards == 0 {
		c.Shards = defaultShards()
	}
	return c
}

// defaultShards sizes the lock-stripe count to the host: the next power
// of two at or above GOMAXPROCS, capped at 64 (beyond that the stripes
// outnumber any realistic contention and only cost memory).
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	s := 1
	for s < n && s < 64 {
		s <<= 1
	}
	return s
}

// Software cost constants for the eviction path (Fig 11c's breakdown).
// These model the compute-node CPU work per evicted page; the RDMA side
// comes from the rdma package's cost model.
const (
	// bitmapScanCost is the fixed cost of scanning a page's 64-bit dirty
	// bitmap and computing its segments.
	bitmapScanCost = 75 * time.Nanosecond
	// segmentCopyFixed is the per-segment overhead of the copy into the
	// RDMA-registered log (cache miss on the source line, header write).
	segmentCopyFixed = 130 * time.Nanosecond
	// pageCopyFixed is the per-page overhead of a full 4KB copy in the
	// Kona-VM eviction path.
	pageCopyFixed = 120 * time.Nanosecond
)

// copyCost models copying n payload bytes into a registered buffer.
func copyCost(n int) simclock.Duration {
	return simclock.Memcpy(n)
}
