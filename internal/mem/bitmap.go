package mem

import "math/bits"

// LineBitmap tracks one bit per cache line within a 4KB page. It is the
// in-memory form of the dirty bitmap the FPGA reference architecture keeps
// per cached page (§4.3): bit i set means line i has been written since the
// page was fetched.
//
// The zero value is an empty (all-clean) bitmap.
type LineBitmap uint64

// Set marks line i (0..63) as dirty.
func (b *LineBitmap) Set(i int) { *b |= 1 << uint(i) }

// Clear marks line i as clean.
func (b *LineBitmap) Clear(i int) { *b &^= 1 << uint(i) }

// Get reports whether line i is dirty.
func (b LineBitmap) Get(i int) bool { return b&(1<<uint(i)) != 0 }

// Count returns the number of dirty lines.
func (b LineBitmap) Count() int { return bits.OnesCount64(uint64(b)) }

// Any reports whether any line is dirty.
func (b LineBitmap) Any() bool { return b != 0 }

// Full reports whether every line in the page is dirty.
func (b LineBitmap) Full() bool { return b == ^LineBitmap(0) }

// SetRange marks lines [lo, hi) dirty; 0 <= lo <= hi <= LinesPerPage.
func (b *LineBitmap) SetRange(lo, hi int) {
	// Ones below hi less ones below lo; 1<<64 is 0, so hi = 64 is all ones.
	*b |= (LineBitmap(1)<<uint(hi) - 1) &^ (LineBitmap(1)<<uint(lo) - 1)
}

// Reset clears all lines.
func (b *LineBitmap) Reset() { *b = 0 }

// Segment is a maximal run of contiguous set lines within a page. Segments
// are the unit the paper studies in Fig. 3 and the unit the cache-line log
// aggregates during eviction (§6.4): one memcpy and one log entry per
// segment rather than per line.
type Segment struct {
	First int // index of the first line in the run
	N     int // number of contiguous lines
}

// Segments returns the maximal contiguous runs of set bits in ascending
// order. An all-clean bitmap yields nil.
func (b LineBitmap) Segments() []Segment {
	if b == 0 {
		return nil
	}
	return b.AppendSegments(nil)
}

// AppendSegments appends the maximal contiguous runs of set bits to dst
// and returns the extended slice — the allocation-free form of Segments
// for hot paths that reuse a scratch slice across calls.
func (b LineBitmap) AppendSegments(dst []Segment) []Segment {
	v := uint64(b)
	for v != 0 {
		first := bits.TrailingZeros64(v)
		// Shift so the run starts at bit 0, then measure the run of ones.
		run := bits.TrailingZeros64(^(v >> uint(first)))
		dst = append(dst, Segment{First: first, N: run})
		if first+run >= 64 {
			break
		}
		v &^= ((1 << uint(run)) - 1) << uint(first)
	}
	return dst
}

// MarkWrite sets the dirty bits covered by a write of length n bytes
// starting at byte offset off within the page. Writes that spill past the
// page end are truncated; the caller splits multi-page writes.
func (b *LineBitmap) MarkWrite(off, n uint64) {
	if n == 0 || off >= PageSize {
		return
	}
	end := off + n
	if end > PageSize {
		end = PageSize
	}
	lo := int(off / CacheLineSize)
	hi := int((end - 1) / CacheLineSize)
	b.SetRange(lo, hi+1)
}
