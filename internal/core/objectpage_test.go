package core

import (
	"bytes"
	"testing"

	"kona/internal/mem"
)

// Object pages (DESIGN.md §16): the pages wholly inside a MallocObjects
// allocation are object pages until freed, and a fill of one fetches only
// the lines asked for.

func TestObjectPagesAreWholePagesOfMallocObjects(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	// A neighbour owns the first 64 B of the slab's first page, so the
	// allocation covers part of pages 0 and 3 and all of pages 1 and 2.
	neighbour, err := k.Malloc(mem.CacheLineSize)
	if err != nil {
		t.Fatal(err)
	}
	base, err := k.MallocObjects(3 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if base != neighbour+mem.CacheLineSize {
		t.Fatalf("allocator placed the allocation at %v, test expects %v", base, neighbour+mem.CacheLineSize)
	}
	object := func(p int) bool { return k.rm.Lookup(neighbour + mem.Addr(p)*mem.PageSize).Object }
	for p, want := range []bool{false, true, true, false} {
		if got := object(p); got != want {
			t.Errorf("page %d object = %v, want %v", p, got, want)
		}
	}
	// Malloc and MallocFresh make no object pages.
	for name, malloc := range map[string]func(uint64) (mem.Addr, error){"Malloc": k.Malloc, "MallocFresh": k.MallocFresh} {
		a, err := malloc(2 * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for p := a.AlignUp(mem.PageSize); p < a+2*mem.PageSize; p += mem.PageSize {
			if k.rm.Lookup(p).Object {
				t.Errorf("%s made page %v an object page", name, p)
			}
		}
	}
	// Free ends the promise: the space may come back in smaller pieces.
	if err := k.Free(base); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if object(p) {
			t.Errorf("page %d is still an object page after Free", p)
		}
	}
}

func TestObjectPageFetchesOnlyTheRecord(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	base, err := k.MallocObjects(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// A 2 KB record in a 4 KB block and a 5 000 B one in an 8 KB block.
	small := bytes.Repeat([]byte{0x21}, 2070)
	big := bytes.Repeat([]byte{0x42}, 5000)
	now := mustWrite(t, k, 0, base, small)
	now = mustWrite(t, k, now, base+2*mem.PageSize, big)
	if now, err = k.Sync(now); err != nil {
		t.Fatal(err)
	}
	coldCache(k)
	before := k.FPGAStats()
	now, got := mustRead(t, k, now, base, len(small))
	if !bytes.Equal(got, small) {
		t.Fatal("small record did not come back from remote memory")
	}
	if _, got = mustRead(t, k, now, base+2*mem.PageSize, len(big)); !bytes.Equal(got, big) {
		t.Fatal("big record did not come back from remote memory")
	}
	st := k.FPGAStats()
	// 33 lines of the first page; 64 + 15 lines of the two pages of the
	// second (the simulated fabric reads page by page).
	if fetched, want := st.BytesFetched-before.BytesFetched, uint64(33+64+15)*mem.CacheLineSize; fetched != want {
		t.Errorf("reading the records fetched %d B, want their lines, %d B", fetched, want)
	}
	if n := st.RemoteFetches - before.RemoteFetches; n != 3 {
		t.Errorf("reading the records made %d fetches, want 3 (one per page)", n)
	}
	// KonaVM records the attribute and ignores it: a fault moves a page.
	vm := NewKonaVM(smallConfig(), newCluster(1))
	a, err := vm.MallocObjects(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !vm.rm.Lookup(a).Object {
		t.Fatal("KonaVM's MallocObjects made no object page")
	}
}
