package kv

import (
	"fmt"
	"slices"

	"kona/internal/mem"
	"kona/internal/telemetry"
)

// valueHeap is a size-class block allocator over Runtime.MallocBlocks (a
// record is written before it is read, so a chunk's never-used pages need
// no fetch on first touch). The runtime hands out coarse regions
// (slab-backed, page-granular); the heap carves them into blocks and
// recycles freed blocks onto per-class free lists, so the store's
// set/delete churn does not consume new disaggregated address space
// forever.
//
// Each class carves from chunks of its own, so a page of the heap holds
// blocks of one class only — memcached's slab classes, and for the same
// reason: FMem caches a page at a time, and a page shared by 95 B records
// and the tail of a 16 KB block caches few of either. Classes up to half a
// page are powers of two; above it a class is a whole number of lines, each
// ×1.25 the last (memcached's factor), and its blocks are laid end to end
// across page boundaries. A class's cursor starts on a page boundary and its
// chunks are whole pages, which gives the layout invariant the fetch path
// depends on:
//
//	a block of class c lies inside one page when blockBytes(c) ≤ mem.PageSize/2,
//	and starts on a line boundary otherwise.
//
// So a get of a record up to 2 KB is at most one page fetch, and a larger
// record spans only the lines it needs: a page holds the tail of one such
// record and the head of the next, not a block's dead tail. The heap
// enforces the boundary itself (newChunk) rather than trusting the
// runtime's allocator to return page-aligned chunks.
//
// A chunk's MallocBlocks call names its class's block size, and the runtime
// fills a page of a class above half a page only as far as a record reaches,
// not its neighbours'. A page of a smaller class holds several blocks and
// stays fetched whole — its neighbours' later hits pay for the extra bytes.
//
// A write ending part-way through a line the cache lacks first reads it for
// ownership, a round trip; one covering the line claims it. So a set into
// an object block writes out to the end of its last line (writeLen). A
// smaller class's blocks are whole lines from a page boundary too, so no
// neighbour shares a record's last line, but a set there is not padded; it
// leans on the Cached probe instead: a freed block is reused newest first,
// except that a write ending part-way through a line takes the newest of
// the class's last cachedScan freed blocks whose record-ending line
// Runtime.Cached reports. A one-size store has no choice
// to make: Set allocates before it releases, so each free list holds at
// most one block.
//
// Each shard owns one heap, so the heap itself needs no locking: all
// calls happen under the owning shard's mutex (and Cached takes the
// runtime's cache lock under it, the order Write already takes them in).
type valueHeap struct {
	rt Runtime
	// free[c] holds recycled blocks of class c (block size blockBytes(c)).
	free [nClasses][]mem.Addr
	// carve[c] is class c's bump cursor over its newest chunk.
	carve [nClasses]cursor

	// liveBytes is the block bytes currently held by the index;
	// chunkCount the chunks allocated, over all classes. Exposed through
	// StoreStats.
	liveBytes  uint64
	chunkCount int
	// cachedReuses counts reused blocks whose record-ending line was
	// cached (kv.heap.cached_reuses); nil counts nothing.
	cachedReuses *telemetry.Counter
}

// cursor is the uncarved tail of a class's newest chunk.
type cursor struct {
	addr mem.Addr
	left uint64
}

const (
	minBlock = 64 // one cache line, the dirty-tracking grain
	// nClasses: 64 B .. 2 KB in powers of two, then 33 lines ×1.25 up to
	// 18 063 lines, the first class past maxRecordLen (a max-size value plus
	// key and header is just over 1 MB).
	nClasses = 6 + 29
	// chunkBytes is the MallocBlocks granularity, a whole number of pages:
	// big enough to amortize the controller round trip, small enough that a
	// lightly-used shard does not pin much remote memory.
	chunkBytes = 256 << 10
	// cachedScan is how many of a class's newest freed blocks alloc probes
	// for one whose record-ending line is cached. Sized on bench kv-write
	// (seed 901, 10 s, 2-vCPU host): rtts_per_op 0.8077 with no probe,
	// 0.7786 at 8, 0.7664 at 16, 0.7438 at 64, 0.7459 unbounded. Its free
	// lists hold 150–480 blocks per class and keep growing: a bounded scan.
	cachedScan = 64
)

// classBytes[c] is class c's block size: powers of two from one line up to
// half a page, then whole lines, each class ×1.25 the last rounded up.
var classBytes = func() (b [nClasses]uint64) {
	b[0] = minBlock
	for c := 1; c < nClasses; c++ {
		switch {
		case b[c-1] < mem.PageSize/2:
			b[c] = 2 * b[c-1]
		case b[c-1] == mem.PageSize/2:
			b[c] = b[c-1] + minBlock
		default:
			b[c] = (b[c-1]/minBlock*5 + 3) / 4 * minBlock
		}
	}
	return b
}()

// classOf returns the size class for an n-byte record: the smallest block
// ≥ n.
func classOf(n int) int {
	c, _ := slices.BinarySearch(classBytes[:], uint64(n))
	return c
}

// blockBytes returns class c's block size.
func blockBytes(c int) uint64 { return classBytes[c] }

// objectClass reports whether class c's blocks are larger than half a page,
// so the runtime fills its chunks' pages only as far as a record reaches.
func objectClass(c int) bool { return blockBytes(c) > mem.PageSize/2 }

// writeLen is how many bytes Set writes for an n-byte record: an object
// block's record runs on, zero-filled, to the end of its last line (no read
// wants an object page's bytes past the record).
func writeLen(n int) int {
	if !objectClass(classOf(n)) {
		return n
	}
	return int(mem.Addr(n).AlignUp(minBlock))
}

func newValueHeap(rt Runtime, cachedReuses *telemetry.Counter) *valueHeap {
	return &valueHeap{rt: rt, cachedReuses: cachedReuses}
}

// alloc returns a block that holds n bytes, reusing a freed block of the
// class when one exists and carving from the class's chunk otherwise.
func (h *valueHeap) alloc(n int) (mem.Addr, int, error) {
	if n > maxRecordLen {
		return 0, 0, fmt.Errorf("%w: %d-byte record", ErrTooLarge, n)
	}
	c := classOf(n)
	if l := len(h.free[c]); l > 0 {
		free := h.free[c]
		// A write ending on a line boundary reads nothing for ownership.
		for i := l - 1; writeLen(n)%minBlock != 0 && i >= max(0, l-cachedScan); i-- {
			if h.rt.Cached(free[i] + mem.Addr(n-1)) {
				free[i], free[l-1] = free[l-1], free[i]
				h.cachedReuses.Inc()
				break
			}
		}
		a := free[l-1]
		h.free[c] = free[:l-1]
		h.liveBytes += blockBytes(c)
		return a, c, nil
	}
	size := blockBytes(c)
	cur := &h.carve[c]
	if cur.left < size {
		if err := h.newChunk(cur, c); err != nil {
			return 0, 0, err
		}
	}
	a := cur.addr
	cur.addr += mem.Addr(size)
	cur.left -= size
	h.liveBytes += size
	return a, c, nil
}

// newChunk points cur at a new chunk for class c's blocks, starting on a
// page boundary. The chunk is the fewest whole pages that hold chunkBytes of
// blocks (rounded up to a whole block), so every block carved from it keeps
// the layout invariant and its uncarved tail is under a page.
// A runtime whose allocator returns a base off a page boundary (another
// caller left it mid-page) costs one more request, one page longer, whose
// first boundary starts the cursor; the misaligned chunk is not used.
func (h *valueHeap) newChunk(cur *cursor, c int) error {
	size := blockBytes(c)
	chunk := uint64(mem.Addr((chunkBytes + size - 1) / size * size).AlignUp(mem.PageSize))
	base, err := h.rt.MallocBlocks(chunk, size)
	if err == nil && base.PageOffset() != 0 {
		h.chunkCount++
		base, err = h.rt.MallocBlocks(chunk+mem.PageSize, size)
	}
	if err != nil {
		return fmt.Errorf("kv: value heap: %w", err)
	}
	h.chunkCount++
	*cur = cursor{addr: base.AlignUp(mem.PageSize), left: chunk}
	return nil
}

// release returns a block of class c to its free list.
func (h *valueHeap) release(a mem.Addr, c int) {
	h.free[c] = append(h.free[c], a)
	h.liveBytes -= blockBytes(c)
}
