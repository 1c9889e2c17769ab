package fpga

import (
	"bytes"
	"testing"

	"kona/internal/mem"
	"kona/internal/simclock"
)

// Fresh pages (DESIGN.md §16): a fill of a page the translator's Lookup
// calls fresh never reaches ReadRange or the fetch hook; the lines the frame
// is missing are zeroed, the lines already written are kept.

// staleTranslator is remote memory in which every byte is 0xEE — what a
// recycled memnode extent might hold — and which counts how it was asked.
// The pages of [rigBase, fresh) are fresh; the others' routes are
// contiguous.
type staleTranslator struct {
	fresh mem.Addr
	reads int
}

func (s *staleTranslator) Lookup(base mem.Addr) Page {
	if base >= rigBase && base < s.fresh {
		return Page{Base: base, Unwritten: ^mem.LineBitmap(0)}
	}
	return Page{Base: base, Route: Route{Via: s, Off: uint64(base)}}
}

func (s *staleTranslator) ReadRange(now simclock.Duration, _ Page, off uint64, buf []byte) (simclock.Duration, error) {
	s.reads++
	for i := range buf {
		buf[i] = 0xEE
	}
	return now + 1000, nil
}

func (s *staleTranslator) ReadGather(now simclock.Duration, _ Page, _ []uint64, bufs [][]byte) (simclock.Duration, error) {
	s.reads++
	for _, b := range bufs {
		for i := range b {
			b[i] = 0xEE
		}
	}
	return now + 1000, nil
}

// freshRig is an FPGA over a staleTranslator in which the pages of
// [rigBase, rigBase+freshPages pages) are fresh. It counts fetch-hook calls.
type freshRig struct {
	f     *FPGA
	tr    *staleTranslator
	hooks int
}

func newFreshRig(cfg Config, freshPages int) *freshRig {
	r := &freshRig{tr: &staleTranslator{fresh: rigBase + mem.Addr(freshPages)*mem.PageSize}}
	r.f = New(cfg, r.tr, nil)
	r.f.SetFetchHook(func(now simclock.Duration, _ mem.Addr) simclock.Duration {
		r.hooks++
		return now
	})
	return r
}

// untouched fails the test if a fill reached remote memory.
func (r *freshRig) untouched(t *testing.T) {
	t.Helper()
	st := r.f.Stats()
	if r.tr.reads != 0 || r.hooks != 0 || st.RemoteFetches != 0 || st.BytesFetched != 0 {
		t.Fatalf("fresh fill reached remote memory: %d reads, %d hook calls, RemoteFetches %d, BytesFetched %d",
			r.tr.reads, r.hooks, st.RemoteFetches, st.BytesFetched)
	}
}

func pageOf(b byte) []byte { return bytes.Repeat([]byte{b}, mem.PageSize) }

func TestFreshDemandMissZeroFillsRecycledFrame(t *testing.T) {
	// One set of four ways: the fifth page recycles a frame full of 0xEE.
	r := newFreshRig(Config{FMemSize: 4 * mem.PageSize}, 1)
	buf := make([]byte, mem.PageSize)
	for p := 1; p <= 4; p++ {
		if _, err := r.f.Read(0, rigBase+mem.Addr(p)*mem.PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, pageOf(0xEE)) || r.tr.reads != 4 || r.hooks != 4 {
		t.Fatalf("pages that are not fresh must fetch: %d reads, %d hook calls", r.tr.reads, r.hooks)
	}
	before := r.f.Stats()
	if _, err := r.f.Read(0, rigBase, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pageOf(0)) {
		t.Fatal("fresh page read back the recycled frame's bytes, want zeros")
	}
	st := r.f.Stats()
	if r.tr.reads != 4 || r.hooks != 4 || st.RemoteFetches != before.RemoteFetches || st.BytesFetched != before.BytesFetched {
		t.Fatalf("fresh fill reached remote memory: %d reads, %d hook calls, RemoteFetches %d → %d",
			r.tr.reads, r.hooks, before.RemoteFetches, st.RemoteFetches)
	}
	if st.FreshFills != 1 {
		t.Fatalf("FreshFills = %d, want 1", st.FreshFills)
	}
}

func TestFreshFillKeepsWrittenLinesZeroesTheRest(t *testing.T) {
	r := newFreshRig(Config{FMemSize: 16 * mem.PageSize}, 1)
	// A whole line claimed without a fill, then a write that covers part of
	// two lines and so needs both boundary lines read for ownership.
	whole := bytes.Repeat([]byte{0xA1}, mem.CacheLineSize)
	part := bytes.Repeat([]byte{0xB2}, 70)
	if _, err := r.f.Write(0, rigBase+3*mem.CacheLineSize, whole); err != nil {
		t.Fatal(err)
	}
	if _, err := r.f.Write(0, rigBase+10*mem.CacheLineSize+30, part); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, mem.PageSize)
	copy(want[3*mem.CacheLineSize:], whole)
	copy(want[10*mem.CacheLineSize+30:], part)
	got := make([]byte, mem.PageSize)
	if _, err := r.f.Read(0, rigBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fresh page: written bytes lost or unwritten bytes not zero")
	}
	r.untouched(t)
	if d := r.f.DirtyLines(rigBase); d.Count() != 3 {
		t.Fatalf("dirty lines = %d, want the 3 written ones (a zero fill dirties nothing)", d.Count())
	}
}

func TestFreshSubPageFillZeroesOnlyMissingLines(t *testing.T) {
	r := newFreshRig(Config{FMemSize: 16 * mem.PageSize, FetchBytes: 256}, 1)
	line := bytes.Repeat([]byte{0xC3}, mem.CacheLineSize)
	if _, err := r.f.Write(0, rigBase+5*mem.CacheLineSize, line); err != nil {
		t.Fatal(err)
	}
	// Lines 4..7 are one 256 B block: 5 is present, 4, 6 and 7 are missing.
	got := make([]byte, 256)
	if _, err := r.f.Read(0, rigBase+4*mem.CacheLineSize, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 256)
	copy(want[mem.CacheLineSize:], line)
	if !bytes.Equal(got, want) {
		t.Fatal("sub-page fresh fill overwrote a present line or left a missing one unzeroed")
	}
	r.untouched(t)
	if st := r.f.Stats(); st.FreshFills != 1 {
		t.Fatalf("FreshFills = %d, want 1 (one block)", st.FreshFills)
	}
}

func TestFreshPagesStayOutOfBatchAndPrefetch(t *testing.T) {
	// Pages 0..3 fresh, 4..5 not: a six-page Read's span read covers only
	// the two.
	r := newFreshRig(Config{FMemSize: 64 * mem.PageSize}, 4)
	buf := make([]byte, 6*mem.PageSize)
	if _, err := r.f.Read(0, rigBase, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:4*mem.PageSize], make([]byte, 4*mem.PageSize)) {
		t.Fatal("fresh pages of the span are not zero")
	}
	if !bytes.Equal(buf[4*mem.PageSize:], bytes.Repeat([]byte{0xEE}, 2*mem.PageSize)) {
		t.Fatal("fetched pages of the span are not remote memory's bytes")
	}
	st := r.f.Stats()
	if r.tr.reads != 1 || st.RemoteFetches != 1 || st.BytesFetched != 2*mem.PageSize {
		t.Fatalf("span made %d reads, RemoteFetches %d, BytesFetched %d; want 1, 1, %d",
			r.tr.reads, st.RemoteFetches, st.BytesFetched, 2*mem.PageSize)
	}
	if r.hooks != 2 {
		t.Fatalf("fetch hook ran %d times, want 2 (the pages that are not fresh)", r.hooks)
	}

	// Sequential fills of fresh pages: the next page is fresh too, and the
	// next-page prefetch leaves it out — a zero-filled frame buys nothing and
	// would evict a cached page.
	p := newFreshRig(Config{FMemSize: 64 * mem.PageSize, PrefetchDepth: 1}, 8)
	for i := 0; i < 2; i++ {
		if _, err := p.f.LineFill(0, rigBase+mem.Addr(i)*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if p.f.Resident(rigBase+2*mem.PageSize) || p.f.Stats().Prefetches != 0 {
		t.Fatalf("sequential fills of fresh pages prefetched the next fresh page: resident %t, Prefetches %d",
			p.f.Resident(rigBase+2*mem.PageSize), p.f.Stats().Prefetches)
	}
	p.untouched(t)
}
