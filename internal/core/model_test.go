package core

import (
	"bytes"
	"math/rand"
	"testing"

	"kona/internal/mem"
)

// modelTest drives a runtime with random operations mirrored into a plain
// byte-slice reference model, checking that every read observes exactly
// what the model predicts — across cache hits, remote fetches, capacity
// evictions, log flushes and (for Kona) replica failover.
type modelRuntime interface {
	Malloc(uint64) (mem.Addr, error)
	Read(simDurT, mem.Addr, []byte) (simDurT, error)
	Write(simDurT, mem.Addr, []byte) (simDurT, error)
	Sync(simDurT) (simDurT, error)
}

func runModel(t *testing.T, rt modelRuntime, seed int64, steps int) {
	t.Helper()
	const regionPages = 128
	regionBytes := uint64(regionPages * mem.PageSize)
	base, err := rt.Malloc(regionBytes)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, regionBytes)
	rng := rand.New(rand.NewSource(seed))
	var now simDurT
	for step := 0; step < steps; step++ {
		off := uint64(rng.Int63n(int64(regionBytes - 512)))
		size := 1 + rng.Intn(511)
		switch rng.Intn(10) {
		case 0: // sync occasionally
			if now, err = rt.Sync(now); err != nil {
				t.Fatalf("step %d: sync: %v", step, err)
			}
		case 1, 2, 3, 4: // write
			data := make([]byte, size)
			rng.Read(data)
			if now, err = rt.Write(now, base+mem.Addr(off), data); err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
			copy(model[off:], data)
		default: // read
			buf := make([]byte, size)
			if now, err = rt.Read(now, base+mem.Addr(off), buf); err != nil {
				t.Fatalf("step %d: read: %v", step, err)
			}
			if !bytes.Equal(buf, model[off:off+uint64(size)]) {
				t.Fatalf("step %d: read at +%d/%d diverged from model", step, off, size)
			}
		}
	}
	// Final sweep: every byte must match after a sync.
	if now, err = rt.Sync(now); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, mem.PageSize)
	for p := 0; p < regionPages; p++ {
		if now, err = rt.Read(now, base+mem.Addr(p*mem.PageSize), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, model[p*mem.PageSize:(p+1)*mem.PageSize]) {
			t.Fatalf("final sweep: page %d diverged", p)
		}
	}
}

func TestModelKonaTinyCache(t *testing.T) {
	// 8-page FMem against a 128-page region: constant eviction churn.
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	runModel(t, NewKona(cfg, newCluster(2)), 1, 4000)
}

func TestModelKonaPrefetch(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalCacheBytes = 16 * mem.PageSize
	cfg.PrefetchDepth = 1
	runModel(t, NewKona(cfg, newCluster(1)), 2, 4000)
}

func TestModelKonaVM(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	runModel(t, NewKonaVM(cfg, newCluster(1)), 3, 4000)
}

func TestModelKonaVMNoWP(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	rt := NewKonaVM(cfg, newCluster(1))
	rt.WriteProtect = false
	runModel(t, rt, 4, 2000)
}

func TestModelKonaReplicatedWithFailover(t *testing.T) {
	ctrl := newCluster(3)
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.Replicas = 2
	rt := NewKona(cfg, ctrl)

	// Phase 1: random ops, then drain.
	runModel(t, rt, 5, 1500)

	// Phase 2: fail one node and keep going on a fresh region — every
	// read must still match (the model harness reallocates its region).
	n, _ := ctrl.Node(1)
	n.Fail()
	runModel(t, rt, 6, 1000)
}

// TestModelKonaVMReplicatedWithFailover is the KonaVM twin of the test
// above: faults read through the shared translator, which must fail over
// past the dead node, and each write-back skips the dead replica while a
// live one takes the page.
func TestModelKonaVMReplicatedWithFailover(t *testing.T) {
	ctrl := newCluster(3)
	// Step the round-robin cursor past node 0, so the runtime's slab is
	// placed on nodes 1 and 2 and failing node 1 fails its primary.
	if _, err := ctrl.AllocSlab(mem.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.Replicas = 2
	rt := NewKonaVM(cfg, ctrl)

	runModel(t, rt, 5, 1500)

	n, _ := ctrl.Node(1)
	n.Fail()
	// The simulated fabric still lands a write on a failed node, so the
	// skip is checked on the dead member's extent: nothing may change it.
	var dead []byte
	for _, g := range rt.rm.replicas {
		if m := g.members[0]; m.Node == 1 {
			dead = n.PoolBytes()[m.RemoteOff : m.RemoteOff+m.Size]
		}
	}
	frozen := bytes.Clone(dead)
	runModel(t, rt, 6, 1000)
	if dead == nil || !bytes.Equal(dead, frozen) {
		t.Fatal("a write-back reached the dead replica")
	}
	if st := rt.Stats(); st.Fetches == 0 || st.DirtyEvicted == 0 {
		t.Fatalf("stats %+v: the model never reached remote memory", st)
	}
	if rt.rm.failovers == 0 {
		t.Fatal("no fault read failed over past the dead primary")
	}
}

func TestModelKonaSubPageFetch(t *testing.T) {
	// Sub-page (512B) fetch granularity with heavy eviction churn: the
	// partial-fill and read-modify-write paths must stay data-correct.
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.FetchBytes = 512
	runModel(t, NewKona(cfg, newCluster(1)), 7, 4000)
}

func TestModelKonaLineFetch(t *testing.T) {
	// The extreme: cache-line (64B) fetch granularity.
	cfg := smallConfig()
	cfg.LocalCacheBytes = 8 * mem.PageSize
	cfg.FetchBytes = 64
	runModel(t, NewKona(cfg, newCluster(1)), 8, 2500)
}
