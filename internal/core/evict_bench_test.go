package core

import (
	"bytes"
	"testing"

	"kona/internal/mem"
)

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
