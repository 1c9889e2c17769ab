package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddrLinePage(t *testing.T) {
	cases := []struct {
		a        Addr
		line     uint64
		page     uint64
		lineIn   int
		pageOff  uint64
		hugePage uint64
	}{
		{0, 0, 0, 0, 0, 0},
		{63, 0, 0, 0, 63, 0},
		{64, 1, 0, 1, 64, 0},
		{4095, 63, 0, 63, 4095, 0},
		{4096, 64, 1, 0, 0, 0},
		{HugePageSize, LinesPerHugePage, HugePageSize / PageSize, 0, 0, 1},
		{4096*3 + 130, 64*3 + 2, 3, 2, 130, 0},
	}
	for _, c := range cases {
		if got := c.a.Line(); got != c.line {
			t.Errorf("%v.Line() = %d, want %d", c.a, got, c.line)
		}
		if got := c.a.Page(); got != c.page {
			t.Errorf("%v.Page() = %d, want %d", c.a, got, c.page)
		}
		if got := c.a.LineInPage(); got != c.lineIn {
			t.Errorf("%v.LineInPage() = %d, want %d", c.a, got, c.lineIn)
		}
		if got := c.a.PageOffset(); got != c.pageOff {
			t.Errorf("%v.PageOffset() = %d, want %d", c.a, got, c.pageOff)
		}
		if got := c.a.HugePage(); got != c.hugePage {
			t.Errorf("%v.HugePage() = %d, want %d", c.a, got, c.hugePage)
		}
	}
}

func TestAddrAlign(t *testing.T) {
	if got := Addr(4097).AlignDown(PageSize); got != 4096 {
		t.Errorf("AlignDown = %v, want 4096", got)
	}
	if got := Addr(4097).AlignUp(PageSize); got != 8192 {
		t.Errorf("AlignUp = %v, want 8192", got)
	}
	if got := Addr(4096).AlignUp(PageSize); got != 4096 {
		t.Errorf("AlignUp aligned = %v, want 4096", got)
	}
	if got := Addr(0).AlignDown(64); got != 0 {
		t.Errorf("AlignDown(0) = %v, want 0", got)
	}
}

func TestRange(t *testing.T) {
	r := Range{Start: 100, Len: 200}
	if r.End() != 300 {
		t.Fatalf("End = %v", r.End())
	}
	if !r.Contains(100) || !r.Contains(299) || r.Contains(300) || r.Contains(99) {
		t.Errorf("Contains boundaries wrong")
	}
	if !r.Overlaps(Range{Start: 299, Len: 1}) {
		t.Errorf("expected overlap at last byte")
	}
	if r.Overlaps(Range{Start: 300, Len: 10}) {
		t.Errorf("half-open end must not overlap")
	}
	if r.Overlaps(Range{Start: 0, Len: 100}) {
		t.Errorf("half-open start must not overlap")
	}
}

func TestRangePagesLines(t *testing.T) {
	cases := []struct {
		r     Range
		pages uint64
		lines uint64
	}{
		{Range{0, 0}, 0, 0},
		{Range{0, 1}, 1, 1},
		{Range{0, 4096}, 1, 64},
		{Range{4095, 2}, 2, 2},
		{Range{63, 2}, 1, 2},
		{Range{0, 8192}, 2, 128},
		{Range{100, 4096}, 2, 65},
	}
	for _, c := range cases {
		if got := c.r.Pages(); got != c.pages {
			t.Errorf("%v.Pages() = %d, want %d", c.r, got, c.pages)
		}
		if got := c.r.Lines(); got != c.lines {
			t.Errorf("%v.Lines() = %d, want %d", c.r, got, c.lines)
		}
	}
}

func TestLineBitmapBasics(t *testing.T) {
	var b LineBitmap
	if b.Any() || b.Count() != 0 {
		t.Fatalf("zero value must be clean")
	}
	b.Set(0)
	b.Set(63)
	b.Set(5)
	if b.Count() != 3 || !b.Get(0) || !b.Get(63) || !b.Get(5) || b.Get(1) {
		t.Fatalf("set/get mismatch: %b", b)
	}
	b.Clear(5)
	if b.Count() != 2 || b.Get(5) {
		t.Fatalf("clear failed")
	}
	b.Reset()
	if b.Any() {
		t.Fatalf("reset failed")
	}
	b.SetRange(0, 64)
	if !b.Full() {
		t.Fatalf("full bitmap not detected")
	}
}

// TestSetRangeMatchesLoop checks the mask form of SetRange against the
// bit-at-a-time loop it replaced, over every (lo, hi) of a page (an empty
// or inverted range included: the loop did nothing there) and on top of a
// non-empty bitmap (the OR must keep prior bits).
func TestSetRangeMatchesLoop(t *testing.T) {
	const prior = LineBitmap(0xA5A5_0000_F00F_0001)
	for lo := 0; lo <= LinesPerPage; lo++ {
		for hi := 0; hi <= LinesPerPage; hi++ {
			want := prior
			for i := lo; i < hi; i++ {
				want.Set(i)
			}
			got := prior
			got.SetRange(lo, hi)
			if got != want {
				t.Fatalf("SetRange(%d, %d) = %064b, loop = %064b", lo, hi, got, want)
			}
		}
	}
}

func TestSegments(t *testing.T) {
	cases := []struct {
		set  []int
		want []Segment
	}{
		{nil, nil},
		{[]int{0}, []Segment{{0, 1}}},
		{[]int{63}, []Segment{{63, 1}}},
		{[]int{0, 1, 2, 3}, []Segment{{0, 4}}},
		{[]int{0, 2, 4}, []Segment{{0, 1}, {2, 1}, {4, 1}}},
		{[]int{1, 2, 10, 11, 12, 63}, []Segment{{1, 2}, {10, 3}, {63, 1}}},
	}
	for _, c := range cases {
		var b LineBitmap
		for _, i := range c.set {
			b.Set(i)
		}
		got := b.Segments()
		if len(got) != len(c.want) {
			t.Errorf("set %v: segments %v, want %v", c.set, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("set %v: segment %d = %v, want %v", c.set, i, got[i], c.want[i])
			}
		}
	}
	// All 64 lines set: one maximal segment.
	full := ^LineBitmap(0)
	segs := full.Segments()
	if len(segs) != 1 || segs[0] != (Segment{0, 64}) {
		t.Errorf("full bitmap segments = %v", segs)
	}
}

// Property: Segments() partitions exactly the set bits, runs are maximal,
// and the union of segments reconstructs the bitmap.
func TestSegmentsQuick(t *testing.T) {
	f := func(v uint64) bool {
		b := LineBitmap(v)
		segs := b.Segments()
		var rebuilt LineBitmap
		prevEnd := -2
		for _, s := range segs {
			if s.N <= 0 || s.First < 0 || s.First+s.N > 64 {
				return false
			}
			if s.First <= prevEnd { // must be ascending and non-adjacent (maximal)
				return false
			}
			rebuilt.SetRange(s.First, s.First+s.N)
			prevEnd = s.First + s.N
		}
		return rebuilt == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: MarkWrite dirties exactly the lines overlapped by the byte range.
func TestMarkWriteQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		off := uint64(rng.Intn(PageSize))
		n := uint64(rng.Intn(PageSize))
		var b LineBitmap
		b.MarkWrite(off, n)
		for i := 0; i < LinesPerPage; i++ {
			lineLo := uint64(i) * CacheLineSize
			lineHi := lineLo + CacheLineSize
			end := off + n
			if end > PageSize {
				end = PageSize
			}
			overlaps := n > 0 && off < lineHi && lineLo < end
			if b.Get(i) != overlaps {
				t.Fatalf("off=%d n=%d line=%d: got %v want %v", off, n, i, b.Get(i), overlaps)
			}
		}
	}
}

func TestMarkWriteEdges(t *testing.T) {
	var b LineBitmap
	b.MarkWrite(0, 0)
	if b.Any() {
		t.Errorf("zero-length write dirtied lines")
	}
	b.MarkWrite(PageSize, 100) // off past page: no-op
	if b.Any() {
		t.Errorf("out-of-page write dirtied lines")
	}
	b.MarkWrite(PageSize-1, 100) // truncated to last line
	if b.Count() != 1 || !b.Get(63) {
		t.Errorf("truncated write wrong: %b", b)
	}
}

func TestPageLineBase(t *testing.T) {
	if PageBase(3) != 3*PageSize {
		t.Errorf("PageBase(3) = %v", PageBase(3))
	}
	if LineBase(3) != 192 {
		t.Errorf("LineBase(3) = %v", LineBase(3))
	}
}
