package slab

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kona/internal/mem"
)

func grant1(t *testing.T, a *Allocator, base mem.Addr, size uint64) {
	t.Helper()
	if err := a.Grant(Slab{ID: uint64(base), Base: base, Size: size}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFree(t *testing.T) {
	a := NewAllocator()
	grant1(t, a, 0, 1<<20)
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("overlapping allocations")
	}
	// Cache-line rounding: allocations never share a line.
	if p2 != p1+128 {
		t.Errorf("p2 = %v, want %v (100B rounds to 128)", p2, p1+128)
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p1); err == nil {
		t.Fatalf("double free succeeded")
	}
	if err := a.Free(12345); err == nil {
		t.Fatalf("bogus free succeeded")
	}
	// Freed space is reused.
	p3, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Errorf("free space not reused: got %v, want %v", p3, p1)
	}
}

func TestGrantValidation(t *testing.T) {
	a := NewAllocator()
	grant1(t, a, 0, 1<<20)
	if err := a.Grant(Slab{ID: 0, Base: 1 << 20, Size: 1 << 20}); err == nil {
		t.Errorf("duplicate slab id accepted")
	}
	if err := a.Grant(Slab{ID: 7, Base: 1 << 19, Size: 1 << 20}); err == nil {
		t.Errorf("overlapping slab accepted")
	}
	if err := a.Grant(Slab{ID: 8, Base: 1 << 20, Size: 0}); err == nil {
		t.Errorf("zero-size slab accepted")
	}
}

func TestOutOfMemory(t *testing.T) {
	a := NewAllocator()
	if _, err := a.Alloc(64); err == nil {
		t.Fatalf("alloc with no slabs succeeded")
	}
	grant1(t, a, 0, 128)
	if _, err := a.Alloc(256); err == nil {
		t.Fatalf("oversized alloc succeeded")
	}
	if _, err := a.Alloc(0); err == nil {
		t.Fatalf("zero alloc succeeded")
	}
}

func TestCoalescing(t *testing.T) {
	a := NewAllocator()
	grant1(t, a, 0, 1<<20)
	var ptrs []mem.Addr
	for i := 0; i < 8; i++ {
		p, err := a.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Free in an interleaved order; everything must coalesce back to one
	// block spanning the slab.
	for _, i := range []int{1, 3, 5, 7, 0, 2, 4, 6} {
		if err := a.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeBlocks() != 1 {
		t.Errorf("free blocks = %d, want 1 after full coalesce", a.FreeBlocks())
	}
	// And a slab-sized allocation must fit again.
	if _, err := a.Alloc(1 << 20); err != nil {
		t.Errorf("full-slab alloc after coalesce failed: %v", err)
	}
}

func TestSlabFor(t *testing.T) {
	a := NewAllocator()
	grant1(t, a, 0, 1<<20)
	grant1(t, a, 1<<21, 1<<20)
	s, ok := a.SlabFor(1<<21 + 5)
	if !ok || s.Base != 1<<21 {
		t.Errorf("SlabFor = %+v ok=%v", s, ok)
	}
	if _, ok := a.SlabFor(1 << 30); ok {
		t.Errorf("SlabFor outside slabs succeeded")
	}
	if got := len(a.Slabs()); got != 2 {
		t.Errorf("Slabs() = %d entries", got)
	}

	// Many slabs granted and attached out of base order, with gaps between
	// them: every address resolves to the slab a linear scan finds, and a
	// detached slab stops resolving while its neighbours still do.
	b := NewAllocator()
	rng := rand.New(rand.NewSource(3))
	const n = 64
	var all []Slab
	for _, i := range rng.Perm(n) {
		s := Slab{ID: uint64(100 + i), Base: mem.Addr(i) << 21, Size: 1 << 20}
		add := b.Grant
		if i%3 == 0 {
			add = b.Attach
		}
		if err := add(s); err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
	}
	linear := func(addr mem.Addr) (Slab, bool) {
		for _, s := range all {
			if s.Range().Contains(addr) {
				return s, true
			}
		}
		return Slab{}, false
	}
	check := func() {
		t.Helper()
		for i := 0; i < 2000; i++ {
			addr := mem.Addr(rng.Int63n(int64(n+1) << 21))
			got, ok := b.SlabFor(addr)
			want, wantOK := linear(addr)
			if ok != wantOK || got != want {
				t.Fatalf("SlabFor(%#x) = %+v %t, want %+v %t", addr, got, ok, want, wantOK)
			}
		}
		slabs := b.Slabs()
		if len(slabs) != len(all) {
			t.Fatalf("Slabs() = %d entries, want %d", len(slabs), len(all))
		}
		for i := 1; i < len(slabs); i++ {
			if slabs[i-1].Base >= slabs[i].Base {
				t.Fatalf("Slabs() out of base order at %d", i)
			}
		}
	}
	check()
	// Overlaps with either neighbour and duplicate ids are refused.
	for _, s := range []Slab{
		{ID: 999, Base: 5<<21 + 1<<19, Size: 1 << 20},     // tail of slab 5
		{ID: 999, Base: 5<<21 - 1<<19, Size: 1 << 20},     // gap into slab 5's head
		{ID: 999, Base: 5<<21 + 1<<20, Size: 3 << 20},     // gap across slab 6
		{ID: 105, Base: mem.Addr(n) << 21, Size: 1 << 20}, // duplicate id
	} {
		if err := b.Attach(s); err == nil {
			t.Fatalf("attach of %+v accepted", s)
		}
	}
	for _, i := range []int{0, 3, 33, 63} { // attached slabs, first and last included
		b.Detach(uint64(100 + i))
		for j, s := range all {
			if s.ID == uint64(100+i) {
				all = append(all[:j], all[j+1:]...)
				break
			}
		}
	}
	check()
	if _, ok := b.SlabFor(33<<21 + 5); ok {
		t.Fatal("detached slab still resolves")
	}
	// Slabs returns a copy: the caller cannot reorder the allocator's list.
	b.Slabs()[0] = Slab{}
	check()
}

// Property: live allocations never overlap, stay within granted slabs,
// and granted == free + allocated at all times.
func TestAllocatorQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewAllocator()
		if err := a.Grant(Slab{ID: 1, Base: 0, Size: 1 << 16}); err != nil {
			return false
		}
		type alloc struct {
			addr mem.Addr
			size uint64
		}
		var live []alloc
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 {
				// Free a pseudo-random live allocation.
				i := int(op) % len(live)
				if a.Free(live[i].addr) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := uint64(op%512 + 1)
			p, err := a.Alloc(size)
			if err != nil {
				continue // OOM is legal
			}
			rounded := uint64(mem.Addr(size).AlignUp(64))
			// Check bounds and overlap.
			if uint64(p)+rounded > 1<<16 {
				return false
			}
			for _, l := range live {
				r1 := mem.Range{Start: p, Len: rounded}
				r2 := mem.Range{Start: l.addr, Len: l.size}
				if r1.Overlaps(r2) {
					return false
				}
			}
			live = append(live, alloc{p, rounded})
		}
		granted, allocated := a.Stats()
		var sum uint64
		for _, l := range live {
			sum += l.size
		}
		return granted == 1<<16 && allocated == sum && a.LiveAllocations() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChurnReusesMemory(t *testing.T) {
	a := NewAllocator()
	grant1(t, a, 0, 1<<20)
	rng := rand.New(rand.NewSource(5))
	var live []mem.Addr
	for i := 0; i < 20000; i++ {
		if len(live) > 100 || (len(live) > 0 && rng.Intn(2) == 0) {
			idx := rng.Intn(len(live))
			if err := a.Free(live[idx]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:idx], live[idx+1:]...)
		} else {
			p, err := a.Alloc(uint64(rng.Intn(2048) + 1))
			if err != nil {
				t.Fatalf("iteration %d: %v (churn must not leak)", i, err)
			}
			live = append(live, p)
		}
	}
}
