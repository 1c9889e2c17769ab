// Package slab implements Kona's two-level memory allocation (§4.1, §4.4):
// the rack controller hands out disaggregated memory in coarse slabs, off
// the application's critical path, and a local allocator (the AllocLib
// role) splits slabs to serve fine-grained malloc/mmap interpositions.
package slab

import (
	"fmt"
	"sort"

	"kona/internal/mem"
)

// DefaultSlabSize is the coarse allocation unit requested from the rack
// controller.
const DefaultSlabSize = 16 << 20

// Slab is one coarse grant of disaggregated memory, mapped contiguously
// into the application's (fake-physical) address space.
type Slab struct {
	// ID is the controller-assigned slab identifier.
	ID uint64
	// Base is the slab's address in the application's VFMem space.
	Base mem.Addr
	// Size is the slab length in bytes.
	Size uint64
	// Node is the memory node hosting the slab.
	Node int
	// Epoch is the hosting node's incarnation number at carve time. A
	// node that crashes and rejoins registers under a higher incarnation;
	// placements stamped with the old epoch are fenced off (§4.5 fault
	// tolerance). Zero means "incarnation tracking not in use" (in-process
	// nodes created outside a controller).
	Epoch uint64
	// RemoteKey/RemoteOff locate the slab in the node's registered memory.
	RemoteKey uint32
	RemoteOff uint64
}

// Range returns the slab's span in the local address space.
func (s Slab) Range() mem.Range { return mem.Range{Start: s.Base, Len: s.Size} }

// block is a free extent.
type block struct {
	addr mem.Addr
	size uint64
}

// Allocator is a first-fit free-list allocator with coalescing over a set
// of granted slabs. It is not safe for concurrent use; the runtime
// serializes allocation (allocation is a control-path operation, §3).
type Allocator struct {
	slabs []Slab  // sorted by Base, non-overlapping
	free  []block // sorted by addr, non-adjacent (coalesced)
	live  map[mem.Addr]uint64

	granted, allocated uint64
}

// NewAllocator returns an empty allocator; Grant slabs before Alloc.
func NewAllocator() *Allocator {
	return &Allocator{live: make(map[mem.Addr]uint64)}
}

// Grant adds a slab's space to the allocator. Overlapping or duplicate
// slabs are rejected.
func (a *Allocator) Grant(s Slab) error {
	if err := a.insertSlab(s, "grant"); err != nil {
		return err
	}
	a.insertFree(block{addr: s.Base, size: s.Size})
	a.granted += s.Size
	return nil
}

// Attach registers a slab for SlabFor translation WITHOUT adding its
// space to the free list. A runtime attaching another runtime's region
// in reader mode shares the writer's addresses (same Base VA) but must
// never allocate out of them; the space belongs to the writer's
// allocator.
func (a *Allocator) Attach(s Slab) error { return a.insertSlab(s, "attach") }

// insertSlab enters s into the base-sorted slab list. In a sorted list of
// disjoint ranges only the two neighbours of s's position can overlap it.
func (a *Allocator) insertSlab(s Slab, verb string) error {
	if s.Size == 0 {
		return fmt.Errorf("slab: zero-size %s", verb)
	}
	for _, other := range a.slabs {
		if other.ID == s.ID {
			return fmt.Errorf("slab: duplicate slab id %d", s.ID)
		}
	}
	i := a.above(s.Base)
	for _, n := range [2]int{i - 1, i} {
		if n >= 0 && n < len(a.slabs) && s.Range().Overlaps(a.slabs[n].Range()) {
			return fmt.Errorf("slab: %s %v overlaps slab %d", verb, s.Range(), a.slabs[n].ID)
		}
	}
	a.slabs = append(a.slabs, Slab{})
	copy(a.slabs[i+1:], a.slabs[i:])
	a.slabs[i] = s
	return nil
}

// above returns the index of the first slab whose base is above addr.
func (a *Allocator) above(addr mem.Addr) int {
	lo, hi := 0, len(a.slabs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a.slabs[m].Base <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Detach removes a slab registered via Attach. It must not be used on
// granted slabs (their space is threaded through the free list).
func (a *Allocator) Detach(id uint64) {
	for i, s := range a.slabs {
		if s.ID == id {
			a.slabs = append(a.slabs[:i], a.slabs[i+1:]...)
			return
		}
	}
}

// SlabFor returns the slab containing addr, for remote-translation
// lookups (the hashmap of §4.4): a binary search of the base-sorted list.
func (a *Allocator) SlabFor(addr mem.Addr) (Slab, bool) {
	if i := a.above(addr) - 1; i >= 0 && a.slabs[i].Range().Contains(addr) {
		return a.slabs[i], true
	}
	return Slab{}, false
}

// Slabs returns a copy of all granted and attached slabs, ordered by base
// address.
func (a *Allocator) Slabs() []Slab { return append([]Slab(nil), a.slabs...) }

// Alloc reserves size bytes (rounded up to a cache line, so no two
// allocations share a line) and returns the base address.
func (a *Allocator) Alloc(size uint64) (mem.Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("slab: zero-size alloc")
	}
	size = uint64(mem.Addr(size).AlignUp(mem.CacheLineSize))
	for i := range a.free {
		if a.free[i].size >= size {
			addr := a.free[i].addr
			a.free[i].addr += mem.Addr(size)
			a.free[i].size -= size
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.live[addr] = size
			a.allocated += size
			return addr, nil
		}
	}
	return 0, fmt.Errorf("slab: out of memory for %d bytes (granted %d, allocated %d)", size, a.granted, a.allocated)
}

// Size returns the size of the live allocation at addr, as Alloc rounded it.
func (a *Allocator) Size(addr mem.Addr) (uint64, bool) {
	size, ok := a.live[addr]
	return size, ok
}

// Free releases an allocation made by Alloc.
func (a *Allocator) Free(addr mem.Addr) error {
	size, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("slab: free of unallocated address %v", addr)
	}
	delete(a.live, addr)
	a.allocated -= size
	a.insertFree(block{addr: addr, size: size})
	return nil
}

// insertFree adds a block, keeping the list sorted and coalesced.
func (a *Allocator) insertFree(b block) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > b.addr })
	a.free = append(a.free, block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = b
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].addr+mem.Addr(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+mem.Addr(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Stats returns granted and currently-allocated byte counts.
func (a *Allocator) Stats() (granted, allocated uint64) {
	return a.granted, a.allocated
}

// FreeBlocks returns the number of free extents (diagnostic: fragmentation).
func (a *Allocator) FreeBlocks() int { return len(a.free) }

// LiveAllocations returns the number of outstanding allocations.
func (a *Allocator) LiveAllocations() int { return len(a.live) }
