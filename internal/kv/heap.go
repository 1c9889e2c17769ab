package kv

import (
	"fmt"
	"math/bits"

	"kona/internal/mem"
)

// valueHeap is a size-class block allocator over Runtime.MallocFresh (a
// record is written before it is read, so a chunk's never-used pages need
// no fetch on first touch). The runtime hands out coarse regions
// (slab-backed, page-granular); the heap carves them into power-of-two
// blocks and recycles freed blocks onto per-class free lists, so the
// store's set/delete churn does not consume new disaggregated address
// space forever.
//
// Each shard owns one heap, so the heap itself needs no locking: all
// calls happen under the owning shard's mutex.
type valueHeap struct {
	rt Runtime
	// chunkBytes is the MallocFresh granularity: big enough to amortize the
	// controller round trip, small enough that a lightly-used shard does
	// not pin much remote memory.
	chunkBytes uint64
	// free[c] holds recycled blocks of class c (block size minBlock<<c).
	free [nClasses][]mem.Addr
	// carve is the bump allocator over the newest chunk.
	carveAddr mem.Addr
	carveLeft uint64

	// liveBytes is the block bytes currently held by the index;
	// chunkCount the chunks allocated. Exposed through StoreStats.
	liveBytes  uint64
	chunkCount int
}

const (
	minBlockShift = 6 // 64B: one cache line, the dirty-tracking grain
	minBlock      = 1 << minBlockShift
	nClasses      = 16 // 64B .. 2MB: the top class covers maxRecordLen
	// (a max-size value plus key and header is just over 1MB).
	defaultChunk = 256 << 10
)

// classOf returns the size class for an n-byte record: the smallest
// power-of-two block ≥ n (and ≥ 64B).
func classOf(n int) int {
	if n <= minBlock {
		return 0
	}
	c := bits.Len(uint(n-1)) - minBlockShift
	return c
}

// blockBytes returns class c's block size.
func blockBytes(c int) uint64 { return minBlock << uint(c) }

func newValueHeap(rt Runtime, chunkBytes uint64) *valueHeap {
	if chunkBytes == 0 {
		chunkBytes = defaultChunk
	}
	return &valueHeap{rt: rt, chunkBytes: chunkBytes}
}

// alloc returns a block that holds n bytes, reusing a freed block of the
// class when one exists and carving from the current chunk otherwise.
func (h *valueHeap) alloc(n int) (mem.Addr, int, error) {
	if n > maxRecordLen {
		return 0, 0, fmt.Errorf("%w: %d-byte record", ErrTooLarge, n)
	}
	c := classOf(n)
	if l := len(h.free[c]); l > 0 {
		a := h.free[c][l-1]
		h.free[c] = h.free[c][:l-1]
		h.liveBytes += blockBytes(c)
		return a, c, nil
	}
	size := blockBytes(c)
	if h.carveLeft < size {
		chunk := h.chunkBytes
		if chunk < size {
			chunk = size
		}
		base, err := h.rt.MallocFresh(chunk)
		if err != nil {
			return 0, 0, fmt.Errorf("kv: value heap: %w", err)
		}
		h.carveAddr, h.carveLeft = base, chunk
		h.chunkCount++
	}
	a := h.carveAddr
	h.carveAddr += mem.Addr(size)
	h.carveLeft -= size
	h.liveBytes += size
	return a, c, nil
}

// release returns a block of class c to its free list.
func (h *valueHeap) release(a mem.Addr, c int) {
	h.free[c] = append(h.free[c], a)
	h.liveBytes -= blockBytes(c)
}
