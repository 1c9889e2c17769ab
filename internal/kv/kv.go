// Package kv is the first real application on the Kona runtime: a
// memcached-style key-value service whose value heap lives in
// disaggregated memory (ROADMAP item 1, DESIGN.md §12).
//
// The split follows the paper's application model (§2.1): the *index* —
// small, pointer-chased, latency-critical — stays in local memory as an
// ordinary Go map per shard, while the *values* — the bulk of the
// footprint — live in Kona pages, so every GET crosses the runtime's
// fetch path and every SET crosses dirty tracking and, eventually, the
// cache-line-log eviction path to the memory nodes.
//
// Components:
//
//   - layout.go: the remote record format (header + key + value +
//     checksum) shared by the store and the examples/kvstore demo.
//     Checksums make torn or misdirected writes detectable at read time.
//   - heap.go: a size-class value-heap allocator over Runtime.MallocBlocks
//     — it hands out coarse chunks, each class carves blocks from chunks
//     of its own (so a record of ≤ 2 KB lies in one page, and larger
//     blocks, whole lines, are laid end to end on pages of their class
//     only), frees recycle blocks onto per-class free lists.
//   - store.go: the sharded store — per-shard local index + heap +
//     LRU budget eviction, all value bytes behind Runtime.Read/Write;
//     a key's shard is its hash scaled onto the shard count (shardOf).
//   - protocol.go / client.go: the memcached text protocol (get/set/
//     delete/stats), server-side parser and a small client.
//   - server.go: the TCP serve loop with per-op latency histograms and
//     graceful drain (stop accepting, finish in-flight, then close).
//   - workload.go / load.go: the open-loop load model — zipfian key
//     popularity over millions of distinct users, Poisson arrivals so
//     queueing delay is visible — and the engine that drives it against
//     a server, reporting p50/p99/p999 (measured, within 1/64) against
//     an SLO and verifying that no acknowledged write was lost or torn.
package kv

import (
	"kona/internal/mem"
	"kona/internal/simclock"
)

// Runtime is the slice of the Kona data path the store needs. Both
// runtimes (*core.Kona and *core.KonaVM) satisfy it, which is what lets
// examples/kvstore run the same store over both and compare.
type Runtime interface {
	Malloc(size uint64) (mem.Addr, error)
	// MallocBlocks is Malloc for memory carved into block-byte blocks,
	// each written before it is read: a first touch of its pages fetches
	// nothing, and the runtime decides from block how much of a page a fill
	// fetches. The value heap carves every chunk with it.
	MallocBlocks(size, block uint64) (mem.Addr, error)
	Read(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error)
	Write(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error)
	Sync(now simclock.Duration) (simclock.Duration, error)
	// Cached reports whether the line holding addr is in the local cache
	// now, so a write ending part-way through it reads nothing for
	// ownership. A hint: the heap reuses such blocks first.
	Cached(addr mem.Addr) bool
}
