package core

import (
	"bytes"
	"net"
	"testing"
	"time"

	"kona/internal/cluster"
	"kona/internal/mem"
)

// delayedTCPRig is tcpRig with a seeded delay injector on every memory
// node's listener: each server-side I/O operation stalls by a uniform
// duration in [0, maxDelay). Bare-loopback round trips are ~10µs, an
// order of magnitude below any real fabric, so without this the ship
// cost is dominated by copies and the pipelined ships have nothing to overlap;
// the injected delay restores the latency-bound regime the pipelining
// targets (and that a real rack lives in).
func delayedTCPRig(b *testing.B, n int, maxDelay time.Duration) string {
	b.Helper()
	ctrl := cluster.NewController()
	cs, err := cluster.ServeController(ctrl, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	for i := 0; i < n; i++ {
		node := cluster.NewMemoryNode(i, 64<<20)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ln = net.Listener(cluster.NewFaultListener(ln, cluster.FaultConfig{
			Seed: int64(i + 1), DelayProb: 1, MaxDelay: maxDelay,
		}))
		ns := cluster.ServeMemoryNodeOn(node, ln)
		b.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(i, 64<<20, ns.Addr()); err != nil {
			b.Fatal(err)
		}
	}
	return cs.Addr()
}

// BenchmarkFlushFanout measures a 3-replica flush over real TCP daemons
// on the pipelined executor: every iteration dirties a batch of cached
// pages and drains the cache-line log to all three nodes, the per-node
// round trips overlapping. The serial baseline it was first compared
// against (8.24 ms/op vs 2.88 ms/op) is recorded in results.txt.
func BenchmarkFlushFanout(b *testing.B) {
	addr := delayedTCPRig(b, 3, 300*time.Microsecond)
	cfg := smallConfig()
	cfg.Replicas = 3
	cfg.LocalCacheBytes = 64 * mem.PageSize
	cfg.LogBytes = 4 << 20 // one ship per node per drain, no threshold flushes
	k := NewKonaTCP(cfg, addr)
	const pages = 16
	base, err := k.Malloc(pages * mem.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, int(mem.PageSize))
	var now simDurT
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < pages; p++ {
			if now, err = k.Write(now, base+mem.Addr(p)*mem.PageSize, payload); err != nil {
				b.Fatal(err)
			}
		}
		if now, err = k.Sync(now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := k.EvictStats(); st.Flushes == 0 {
		b.Fatal("benchmark shipped nothing")
	}
}

// BenchmarkEvictSteadyState drives the dirty-eviction path on the
// simulated transport with a cache 8x smaller than the working set, so
// every write evicts a dirty page through segment scan, arena copy, log
// pack and ship. The arena + scratch reuse should hold it at 0 allocs/op
// once warm.
func BenchmarkEvictSteadyState(b *testing.B) {
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	k := NewKona(cfg, newCluster(1))
	const pages = 64
	base, err := k.Malloc(pages * mem.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xCD}, 256)
	var now simDurT
	// Warm: touch every page once so slabs, frames, batches and the
	// arena reach steady state.
	for p := 0; p < pages; p++ {
		if now, err = k.Write(now, base+mem.Addr(p)*mem.PageSize, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + mem.Addr(i%pages)*mem.PageSize
		if now, err = k.Write(now, addr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchHitSteadyState is the fetch-side allocation check: reads
// served from a resident FMem page must not allocate.
func BenchmarkFetchHitSteadyState(b *testing.B) {
	cfg := smallConfig()
	k := NewKona(cfg, newCluster(1))
	base, err := k.Malloc(4 * mem.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256)
	var now simDurT
	if now, err = k.Read(now, base, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = k.Read(now, base, buf); err != nil {
			b.Fatal(err)
		}
	}
}
