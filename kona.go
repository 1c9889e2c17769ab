// Package kona is the public API of this repository: a Go reproduction of
// "Rethinking Software Runtimes for Disaggregated Memory" (Calciu et al.,
// ASPLOS 2021) — the Kona coherence-based remote-memory runtime, its
// virtual-memory baseline, the rack-level substrate (controller and memory
// nodes), and the paper's simulation tools (KCacheSim, KTracker) and
// evaluation harness.
//
// A minimal program:
//
//	rack := kona.NewCluster(2, 64<<20)            // 2 memory nodes, 64MB each
//	rt := kona.New(kona.DefaultConfig(8<<20), rack) // 8MB local FMem cache
//	addr, _ := rt.Malloc(1 << 20)
//	t, _ := rt.Write(0, addr, []byte("hello remote memory"))
//	t, _ = rt.Read(t, addr, buf)
//	rt.Sync(t) // write dirty lines back; remote memory is current on return
//
// Malloc and MallocBlocks differ in one promise. The first access to a
// page of a Malloc allocation fetches whatever the memory node's extent
// holds. MallocBlocks(size, block) is for memory the caller carves into
// block-byte blocks and writes before it reads — the contents are undefined
// until written — and in exchange a first touch of its pages costs no round
// trip: the runtime knows nothing was ever written there and fills the page
// with zeros locally, until the page is written back or its placement group
// is shared with another runtime. When a block is larger than half a page,
// no read wants a page's bytes outside its own block, so a fill of such a
// page fetches only the lines the read or write reaches (DESIGN.md §16).
//
// Sync is a write-back barrier, not an invalidation: when it returns
// without error every earlier write is in remote memory (on every live
// replica). Pages it flushed leave the FMem cache; clean pages stay
// cached, so a working set that fits keeps hitting across Syncs
// (DESIGN.md §15).
//
// Time is virtual: every operation takes and returns a simulated timestamp
// (kona.Time), advancing under the calibrated cost model described in
// DESIGN.md. Data movement is real — bytes travel between the compute
// node's cache and the memory nodes' pools through the simulated RDMA
// fabric or, for the daemons in cmd/, over TCP.
//
// Concurrency: a Runtime models one compute node whose data path —
// Read, Write, Sync, Malloc — is safe for concurrent goroutines; the
// FMem cache is lock-striped into Config.Shards shards with
// single-flight miss suppression (DESIGN.md §9). Virtual timestamps
// remain per-caller: each goroutine threads its own kona.Time, and the
// Fig 7 harness in internal/experiments still expresses simulated
// multi-threading through timestamps alone. Cluster and MemoryNode are
// safe for concurrent use.
package kona

import (
	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/mem"
	"kona/internal/simclock"
)

// Addr is a byte address in the disaggregated (VFMem) address space.
type Addr = mem.Addr

// Time is a virtual timestamp (nanosecond resolution).
type Time = simclock.Duration

// Config sizes a runtime: local cache, slab size, replication factor,
// eviction-log geometry, prefetching.
type Config = core.Config

// DefaultConfig returns a runtime configuration with the paper's defaults
// for the given local DRAM cache size.
func DefaultConfig(localCacheBytes uint64) Config {
	return core.DefaultConfig(localCacheBytes)
}

// Runtime is the Kona coherence-based remote-memory runtime (§4 of the
// paper): fetches on cache miss without page faults, tracks dirty data per
// 64-byte cache line, evicts through an aggregated cache-line log.
type Runtime = core.Kona

// VMRuntime is the paper's own Kona-VM baseline: the same caching and
// eviction policy built on page faults and 4KB-granularity tracking.
type VMRuntime = core.KonaVM

// Cluster is the rack controller managing memory-node registration and
// coarse slab allocation.
type Cluster = cluster.Controller

// MemoryNode is one disaggregated-memory host, running the cache-line log
// receiver.
type MemoryNode = cluster.MemoryNode

// NewCluster builds a rack with n memory nodes offering capacity bytes
// each — the common experiment setup.
func NewCluster(n int, capacity uint64) *Cluster {
	ctrl := cluster.NewController()
	for i := 0; i < n; i++ {
		if err := ctrl.Register(cluster.NewMemoryNode(i, capacity)); err != nil {
			// Registration of freshly numbered nodes cannot collide.
			panic(err)
		}
	}
	return ctrl
}

// New builds a Kona runtime attached to a cluster.
func New(cfg Config, c *Cluster) *Runtime { return core.NewKona(cfg, c) }

// NewVM builds the Kona-VM baseline runtime attached to a cluster.
func NewVM(cfg Config, c *Cluster) *VMRuntime { return core.NewKonaVM(cfg, c) }

// Granularities of the simulated platform.
const (
	// CacheLineSize is the dirty-tracking granularity (64B).
	CacheLineSize = mem.CacheLineSize
	// PageSize is the fetch/caching granularity (4KB).
	PageSize = mem.PageSize
)

// CoherentDomain is the fully assembled reference architecture: simulated
// CPU caches speaking MESI to a directory whose home memory is the Kona
// FPGA model, so CPU misses become remote fetches and cache writebacks
// become cache-line dirty tracking — with no explicit runtime calls.
type CoherentDomain = core.CoherentDomain

// Range is a byte interval in the disaggregated address space.
type Range = mem.Range

// AddrRange builds the range [start, start+n).
func AddrRange(start Addr, n uint64) Range { return Range{Start: start, Len: n} }

// NewTCP builds a runtime against a remote rack: a kona-controller daemon
// and kona-memnode daemons reached over TCP. Data moves over real sockets;
// measured wall-clock latencies fold into the virtual clock.
func NewTCP(cfg Config, controllerAddr string) *Runtime {
	return core.NewKonaTCP(cfg, controllerAddr)
}

// TransportPolicy configures the TCP wire layer: dial and per-request
// deadlines, the retry budget with exponential backoff + jitter for
// idempotent RPCs, and the persistent-connection pool size per peer.
type TransportPolicy = cluster.Transport

// DefaultTransportPolicy returns the default TCP wire policy.
func DefaultTransportPolicy() TransportPolicy { return cluster.DefaultTransport() }

// NewTCPWith is NewTCP with an explicit wire policy.
func NewTCPWith(cfg Config, controllerAddr string, tr TransportPolicy) *Runtime {
	return core.NewKonaTCPWith(cfg, controllerAddr, tr)
}

// AllocLib is the allocation-interposition layer (§4.1): it places small
// private allocations in local CMem and bulk data in disaggregated memory,
// dispatching reads and writes on the address.
type AllocLib = core.AllocLib

// NewAllocLib wraps a runtime with the interposition layer; threshold 0
// uses the default (one page).
func NewAllocLib(rt *Runtime, threshold uint64) *AllocLib {
	return core.NewAllocLib(rt, threshold)
}

// ErrRemoteUnavailable is returned when every replica of an address's
// slab is unreachable; the access can be retried once the outage resolves
// (§4.5 of the paper).
var ErrRemoteUnavailable = core.ErrRemoteUnavailable
