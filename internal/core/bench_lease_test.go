package core

import (
	"math/rand"
	"sort"
	"testing"

	"kona/internal/mem"
)

// TestLeaseIdleReadersDoNotDegradeWriterFlushP99 is the sharing-overhead
// guard (`make guards`): attaching idle readers to a writer's
// region must not put lease machinery on the writer's flush path. The
// same deterministic dirty-then-Sync sequence runs unshared (baseline)
// and shared with 4 attached readers; the per-Sync virtual-time p99 may
// not degrade by 10% or more. The lease work a shared Sync adds — one
// publish RPC after the flush completes — is control-plane, and this
// pins it that way.
func TestLeaseIdleReadersDoNotDegradeWriterFlushP99(t *testing.T) {
	const pages = 64
	const rounds = 400

	flushP99 := func(readers int) simDurT {
		ctrl := newCluster(1)
		w := NewKona(smallConfig(), ctrl)
		base, err := w.Malloc(pages * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		var now simDurT
		if readers >= 0 {
			group, err := w.ShareWriter(base)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < readers; i++ {
				r := NewKona(smallConfig(), ctrl)
				if _, _, err := r.AttachReader(group); err != nil {
					t.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(11))
		line := make([]byte, mem.CacheLineSize)
		lat := make([]simDurT, 0, rounds)
		for i := 0; i < rounds; i++ {
			// Dirty 8 scattered lines, then flush them — the steady-state
			// shape of a writer publishing small updates.
			for j := 0; j < 8; j++ {
				rng.Read(line)
				addr := base + mem.Addr(rng.Intn(pages))*mem.PageSize +
					mem.Addr(rng.Intn(int(mem.PageSize/mem.CacheLineSize)))*mem.CacheLineSize
				if now, err = w.Write(now, addr, line); err != nil {
					t.Fatal(err)
				}
			}
			done, err := w.Sync(now)
			if err != nil {
				t.Fatal(err)
			}
			lat = append(lat, done-now)
			now = done
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}

	baseline := flushP99(-1) // unshared: no lease touched at all
	shared := flushP99(4)    // writer lease + 4 idle attached readers

	if baseline <= 0 {
		t.Fatalf("degenerate baseline flush p99 %v", baseline)
	}
	t.Logf("flush p99: baseline=%v with-4-idle-readers=%v", baseline, shared)
	if float64(shared) >= float64(baseline)*1.10 {
		t.Fatalf("flush p99 %v with 4 idle readers vs %v unshared: degraded >= 10%%", shared, baseline)
	}
}
