package core

import (
	"bytes"
	"fmt"
	"testing"

	"kona/internal/mem"
)

// BenchmarkEvictSteadyState drives the dirty-eviction path on the
// simulated transport with a cache 8x smaller than the working set, so
// every write evicts a dirty page through segment scan, arena copy, log
// pack and ship. The arena + scratch reuse should hold it at 0 allocs/op
// once warm, with one destination and with two that fill at different
// rates (so threshold cycles ship one while the other's entries keep
// their arena chunks).
func BenchmarkEvictSteadyState(b *testing.B) {
	for _, nodes := range []int{1, 2} {
		b.Run(fmt.Sprintf("memnodes=%d", nodes), func(b *testing.B) {
			cfg := smallConfig()
			cfg.LocalCacheBytes = 8 * mem.PageSize
			k := NewKona(cfg, newCluster(nodes))
			const pages = 64
			// One slab per memnode (round-robin carve), the second written
			// three times as heavily as the first.
			var bases []mem.Addr
			var payloads [][]byte
			for i := 0; i < nodes; i++ {
				base, err := k.Malloc(pages * mem.PageSize)
				if err != nil {
					b.Fatal(err)
				}
				bases = append(bases, base)
				payloads = append(payloads, bytes.Repeat([]byte{0xCD}, 256*(2*i+1)))
			}
			var now simDurT
			var err error
			write := func(i int) {
				addr := bases[i%nodes] + mem.Addr(i/nodes%pages)*mem.PageSize
				if now, err = k.Write(now, addr, payloads[i%nodes]); err != nil {
					b.Fatal(err)
				}
			}
			// Warm: touch every page once so slabs, frames, batches and the
			// arena reach steady state.
			for i := 0; i < nodes*pages; i++ {
				write(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write(i)
			}
		})
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
