package core

import (
	"bytes"
	"testing"

	"kona/internal/fpga"
	"kona/internal/mem"
)

// Object pages (DESIGN.md §16): MallocBlocks marks every page wholly inside
// the allocation unwritten, and makes those pages object pages, until freed,
// exactly when a block is larger than half a page; a fill of an object page
// fetches only the lines asked for.

// heapAllocator is the allocation surface Kona and KonaVM share.
type heapAllocator interface {
	Malloc(size uint64) (mem.Addr, error)
	MallocBlocks(size, block uint64) (mem.Addr, error)
	Free(addr mem.Addr) error
}

func TestObjectPagesAreWholePagesOfLargeBlocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		vm     bool
		block  uint64 // 0 allocates with Malloc
		object bool
	}{
		{"Malloc", false, 0, false},
		{"half-page blocks", false, mem.PageSize / 2, false},
		{"blocks a line over half a page", false, mem.PageSize/2 + mem.CacheLineSize, true},
		// KonaVM marks the pages and ignores them: a fault moves a page.
		{"KonaVM", true, mem.PageSize, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rt heapAllocator
			var rm *resourceManager
			if tc.vm {
				vm := NewKonaVM(smallConfig(), newCluster(1))
				rt, rm = vm, vm.rm
			} else {
				k := NewKona(smallConfig(), newCluster(1))
				rt, rm = k, k.rm
			}
			// A neighbour owns the first 64 B of the slab's first page, so
			// the allocation covers part of pages 0 and 3 and all of pages
			// 1 and 2.
			neighbour, err := rt.Malloc(mem.CacheLineSize)
			if err != nil {
				t.Fatal(err)
			}
			malloc := func(n uint64) (mem.Addr, error) { return rt.MallocBlocks(n, tc.block) }
			if tc.block == 0 {
				malloc = rt.Malloc
			}
			base, err := malloc(3 * mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if base != neighbour+mem.CacheLineSize {
				t.Fatalf("allocator placed the allocation at %v, test expects %v", base, neighbour+mem.CacheLineSize)
			}
			page := func(p int) fpga.Page { return rm.Lookup(neighbour + mem.Addr(p)*mem.PageSize) }
			for p, whole := range []bool{false, true, true, false} {
				got := page(p)
				if want := whole && tc.object; got.Object != want {
					t.Errorf("page %d object = %v, want %v", p, got.Object, want)
				}
				if want := whole && tc.block != 0; got.Unwritten.Full() != want || (!want && got.Unwritten.Any()) {
					t.Errorf("page %d unwritten lines %#x, want every line unwritten = %v", p, uint64(got.Unwritten), want)
				}
			}
			// Free ends the promise: the space may come back in smaller
			// pieces.
			if err := rt.Free(base); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 4; p++ {
				if page(p).Object {
					t.Errorf("page %d is still an object page after Free", p)
				}
			}
		})
	}
	if _, err := NewKona(smallConfig(), newCluster(1)).MallocBlocks(mem.PageSize, 0); err == nil {
		t.Error("MallocBlocks accepted a zero-size block")
	}
}

func TestObjectPageFetchesOnlyTheRecord(t *testing.T) {
	k := NewKona(smallConfig(), newCluster(1))
	base, err := k.MallocBlocks(4*mem.PageSize, mem.PageSize)
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
	// second, in one span read.
	if fetched, want := st.BytesFetched-before.BytesFetched, uint64(33+64+15)*mem.CacheLineSize; fetched != want {
		t.Errorf("reading the records fetched %d B, want their lines, %d B", fetched, want)
	}
	if n := st.RemoteFetches - before.RemoteFetches; n != 2 {
		t.Errorf("reading the records made %d fetches, want 2 (one per record)", n)
	}
}
