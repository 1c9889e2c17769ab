package fpga

import (
	"bytes"
	"errors"
	"testing"

	"kona/internal/mem"
	"kona/internal/simclock"
)

// Object pages (DESIGN.md §16): a fill of a page the translator's Lookup
// calls an object page fetches exactly the missing lines asked for, one
// ReadRange per contiguous run of them; a span read takes only those lines
// and the prefetchers never pull one whole.

// objTranslator is remote memory holding a known pattern over
// [rigBase, rigBase+objRemote). Pages below objects are object pages,
// pages below fresh have no line written; every ReadRange is logged in
// reads, every ReadGather in gathers. Routes are contiguous unless split
// names a page whose route starts a new endpoint.
type objTranslator struct {
	remote         []byte
	objects, fresh mem.Addr
	split          mem.Addr
	reads          []objRead
	gathers        [][]objRead
	lookup         int
	// unwritten, when it names a page, is that page's Page.Unwritten.
	unwritten map[mem.Addr]mem.LineBitmap
}

// objRead is one logged ReadRange: the page, the offset in it, the length.
type objRead struct {
	base     mem.Addr
	off, len int
}

const objRemote = 16 * mem.PageSize

func newObjTranslator(objectPages, freshPages int) *objTranslator {
	t := &objTranslator{
		remote:  make([]byte, objRemote),
		objects: rigBase + mem.Addr(objectPages)*mem.PageSize,
		fresh:   rigBase + mem.Addr(freshPages)*mem.PageSize,
	}
	for i := range t.remote {
		t.remote[i] = byte(i/mem.CacheLineSize) ^ 0x5A
	}
	return t
}

func (t *objTranslator) Lookup(base mem.Addr) Page {
	t.lookup++
	via := any(t)
	if t.split != 0 && base >= t.split {
		via = &t.split // another endpoint
	}
	p := Page{Base: base, Object: base < t.objects, Route: Route{Via: via, Off: uint64(base - rigBase)}}
	if base < t.fresh {
		p.Unwritten = ^mem.LineBitmap(0)
	}
	if u, ok := t.unwritten[base]; ok {
		p.Unwritten = u
	}
	return p
}

func (t *objTranslator) ReadRange(now simclock.Duration, p Page, off uint64, buf []byte) (simclock.Duration, error) {
	t.reads = append(t.reads, objRead{p.Base, int(off), len(buf)})
	copy(buf, t.remote[uint64(p.Base-rigBase)+off:])
	return now + 1000, nil
}

func (t *objTranslator) ReadGather(now simclock.Duration, p Page, offs []uint64, bufs [][]byte) (simclock.Duration, error) {
	var g []objRead
	for i, off := range offs {
		g = append(g, objRead{p.Base, int(off), len(bufs[i])})
		copy(bufs[i], t.remote[uint64(p.Base-rigBase)+off:])
	}
	t.gathers = append(t.gathers, g)
	return now + 1000, nil
}

// remoteAt is remote memory's bytes at [addr, addr+n).
func (t *objTranslator) remoteAt(addr mem.Addr, n int) []byte {
	return t.remote[addr-rigBase : int(addr-rigBase)+n]
}

// wantReads fails the test unless the logged reads are exactly want.
func (t *objTranslator) wantReads(tb testing.TB, want ...objRead) {
	tb.Helper()
	if len(t.reads) != len(want) {
		tb.Fatalf("reads = %+v, want %+v", t.reads, want)
	}
	for i := range want {
		if t.reads[i] != want[i] {
			tb.Fatalf("read %d = %+v, want %+v", i, t.reads[i], want[i])
		}
	}
}

func objFPGA(cfg Config, tr *objTranslator) *FPGA {
	if cfg.FMemSize == 0 {
		cfg.FMemSize = 64 * mem.PageSize
	}
	return New(cfg, tr, nil)
}

const line = mem.CacheLineSize

func TestObjectDemandFillReadsExactlyTheLines(t *testing.T) {
	tr := newObjTranslator(4, 0)
	f := objFPGA(Config{}, tr)
	// 300 bytes from 20 into line 3: lines 3..7, one run.
	addr := rigBase + 3*line + 20
	buf := make([]byte, 300)
	if _, err := f.Read(0, addr, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, tr.remoteAt(addr, len(buf))) {
		t.Fatal("object-page read returned the wrong bytes")
	}
	tr.wantReads(t, objRead{rigBase, 3 * line, 5 * line})
	st := f.Stats()
	if st.RemoteFetches != 1 || st.Fetches[FetchRead] != 1 || st.BytesFetched != 5*line {
		t.Fatalf("RemoteFetches %d (read %d), BytesFetched %d; want 1, 1, %d",
			st.RemoteFetches, st.Fetches[FetchRead], st.BytesFetched, 5*line)
	}
	// The same lines again are an FMem hit: no read, no Lookup.
	lookups := tr.lookup
	if _, err := f.Read(0, addr, buf); err != nil {
		t.Fatal(err)
	}
	if len(tr.reads) != 1 || tr.lookup != lookups {
		t.Fatalf("a hit on present lines made %d reads and %d Lookups", len(tr.reads)-1, tr.lookup-lookups)
	}
	// A plain page (page 4 and up) still fetches its whole block.
	if _, err := f.Read(0, rigBase+4*mem.PageSize+line, buf[:10]); err != nil {
		t.Fatal(err)
	}
	tr.wantReads(t, objRead{rigBase, 3 * line, 5 * line}, objRead{rigBase + 4*mem.PageSize, 0, mem.PageSize})
}

func TestObjectRFOReadsOneLine(t *testing.T) {
	tr := newObjTranslator(4, 0)
	f := objFPGA(Config{}, tr)
	// A write that covers part of line 5 only.
	data := bytes.Repeat([]byte{0xC7}, 10)
	addr := rigBase + 5*line + 8
	if _, err := f.Write(0, addr, data); err != nil {
		t.Fatal(err)
	}
	tr.wantReads(t, objRead{rigBase, 5 * line, line})
	st := f.Stats()
	if st.Fetches[FetchRFO] != 1 || st.BytesFetched != line {
		t.Fatalf("rfo fetches %d, BytesFetched %d; want 1, %d", st.Fetches[FetchRFO], st.BytesFetched, line)
	}
	got := make([]byte, line)
	if _, err := f.Read(0, rigBase+5*line, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), tr.remoteAt(rigBase+5*line, line)...)
	copy(want[8:], data)
	if !bytes.Equal(got, want) || len(tr.reads) != 1 {
		t.Fatalf("line after the RFO: bytes intact %t, %d reads; want true, 1", bytes.Equal(got, want), len(tr.reads))
	}
}

func TestObjectFillKeepsWrittenLines(t *testing.T) {
	tr := newObjTranslator(4, 0)
	f := objFPGA(Config{}, tr)
	// Line 4 claimed whole, without a fill; then a read of lines 2..6.
	whole := bytes.Repeat([]byte{0xA1}, line)
	if _, err := f.Write(0, rigBase+4*line, whole); err != nil {
		t.Fatal(err)
	}
	if len(tr.reads) != 0 {
		t.Fatalf("a whole-line write read %d times", len(tr.reads))
	}
	got := make([]byte, 5*line)
	if _, err := f.Read(0, rigBase+2*line, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), tr.remoteAt(rigBase+2*line, 5*line)...)
	copy(want[2*line:], whole)
	if !bytes.Equal(got, want) {
		t.Fatal("the fill overwrote the written line, or missed a remote one")
	}
	// Two runs of missing lines around the written one, of equal length:
	// one gather of a span per run, one round trip.
	tr.wantReads(t)
	if len(tr.gathers) != 1 || len(tr.gathers[0]) != 2 ||
		tr.gathers[0][0] != (objRead{rigBase, 2 * line, 2 * line}) || tr.gathers[0][1] != (objRead{rigBase, 5 * line, 2 * line}) {
		t.Fatalf("gathers = %+v, want one of lines 2..3 and 5..6", tr.gathers)
	}
	if st := f.Stats(); st.RemoteFetches != 1 || st.BytesFetched != 4*line {
		t.Fatalf("RemoteFetches %d, BytesFetched %d; want 1, %d", st.RemoteFetches, st.BytesFetched, 4*line)
	}
}

func TestObjectFreshPageZeroFills(t *testing.T) {
	tr := newObjTranslator(4, 1)
	f := objFPGA(Config{}, tr)
	hooks := 0
	f.SetFetchHook(func(now simclock.Duration, _ mem.Addr) simclock.Duration { hooks++; return now })
	got := bytes.Repeat([]byte{0xFF}, 200)
	if _, err := f.Read(0, rigBase+line, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("fresh object page read back non-zero bytes")
	}
	st := f.Stats()
	if len(tr.reads) != 0 || hooks != 0 || st.RemoteFetches != 0 || st.FreshFills != 1 {
		t.Fatalf("fresh object fill: %d reads, %d hook calls, RemoteFetches %d, FreshFills %d; want 0, 0, 0, 1",
			len(tr.reads), hooks, st.RemoteFetches, st.FreshFills)
	}
}

func TestObjectPagesStayOutOfBatchAndPrefetch(t *testing.T) {
	// A record of 2 pages + 100 B starting at page 1: one contiguous read of
	// its lines, counted as one fetch, and the hook once per page.
	tr := newObjTranslator(8, 0)
	f := objFPGA(Config{}, tr)
	var hooked []mem.Addr
	f.SetFetchHook(func(now simclock.Duration, base mem.Addr) simclock.Duration {
		hooked = append(hooked, base)
		return now
	})
	addr := rigBase + mem.PageSize
	n := 2*mem.PageSize + 100
	got := make([]byte, n)
	if _, err := f.Read(0, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, tr.remoteAt(addr, n)) {
		t.Fatal("span read returned the wrong bytes")
	}
	tr.wantReads(t, objRead{addr, 0, 2*mem.PageSize + 2*line})
	st := f.Stats()
	if len(hooked) != 3 || st.RemoteFetches != 1 || st.BytesFetched != 2*mem.PageSize+2*line {
		t.Fatalf("span: %d hook calls, RemoteFetches %d, BytesFetched %d; want 3, 1, %d",
			len(hooked), st.RemoteFetches, st.BytesFetched, 2*mem.PageSize+2*line)
	}
	// The rest of the record's last page is dead tail: not resident lines,
	// and a re-read of the record is all hits.
	if _, err := f.Read(0, addr, got); err != nil || len(tr.reads) != 1 {
		t.Fatalf("re-read: err %v, %d reads; want one read in all", err, len(tr.reads))
	}

	// A line written into the record's middle page before the span read
	// survives it; the span is still one read.
	tr = newObjTranslator(8, 0)
	f = objFPGA(Config{}, tr)
	whole := bytes.Repeat([]byte{0xA1}, line)
	if _, err := f.Write(0, addr+mem.PageSize+3*line, whole); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(0, addr, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), tr.remoteAt(addr, n)...)
	copy(want[mem.PageSize+3*line:], whole)
	if !bytes.Equal(got, want) {
		t.Fatal("span read overwrote a written line, or missed a remote one")
	}
	tr.wantReads(t, objRead{addr, 0, 2*mem.PageSize + 2*line})

	// Routes that are not contiguous: each page reads its own lines.
	tr = newObjTranslator(8, 0)
	tr.split = rigBase + 2*mem.PageSize
	f = objFPGA(Config{}, tr)
	if _, err := f.Read(0, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, tr.remoteAt(addr, n)) {
		t.Fatal("per-page object reads returned the wrong bytes")
	}
	tr.wantReads(t, objRead{addr, 0, mem.PageSize}, objRead{addr + mem.PageSize, 0, mem.PageSize},
		objRead{addr + 2*mem.PageSize, 0, 2 * line})

	// The stride prefetcher's window leaves object pages out: strided fills
	// of object pages prefetch nothing, where the same fills of plain pages
	// do.
	// The window never runs past the translator's 16 pages.
	for _, objects := range []int{16, 0} {
		tr = newObjTranslator(objects, 0)
		f = objFPGA(Config{PrefetchDepth: 4}, tr)
		for p := 0; p < 8; p += 2 {
			if _, err := f.LineFill(0, rigBase+mem.Addr(p)*mem.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		if pf := f.Stats().Prefetches; (pf == 0) != (objects > 0) {
			t.Fatalf("strided fills over %d object pages prefetched %d pages", objects, pf)
		}
	}

	// Sequential fills of object pages never prefetch the next page.
	tr = newObjTranslator(8, 0)
	f = objFPGA(Config{PrefetchDepth: 1}, tr)
	for i := 0; i < 3; i++ {
		if _, err := f.LineFill(0, rigBase+mem.Addr(i)*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if f.Resident(rigBase+3*mem.PageSize) || f.Stats().Prefetches != 0 {
		t.Fatalf("sequential object-page fills prefetched: resident %t, Prefetches %d",
			f.Resident(rigBase+3*mem.PageSize), f.Stats().Prefetches)
	}
	tr.wantReads(t, objRead{rigBase, 0, line}, objRead{rigBase + mem.PageSize, 0, line},
		objRead{rigBase + 2*mem.PageSize, 0, line})

	// Nor the plain page after the last of them: a record ending on an
	// object chunk's last page is followed by another allocation's lines.
	tr = newObjTranslator(3, 0)
	f = objFPGA(Config{PrefetchDepth: 1}, tr)
	for i := 1; i < 3; i++ {
		if _, err := f.LineFill(0, rigBase+mem.Addr(i)*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if f.Resident(rigBase+3*mem.PageSize) || f.Stats().Prefetches != 0 {
		t.Fatalf("sequential fills into the last object page prefetched the plain page after it: resident %t, Prefetches %d",
			f.Resident(rigBase+3*mem.PageSize), f.Stats().Prefetches)
	}
}

func TestSpanReadHitAsksNoLookup(t *testing.T) {
	// A multi-page Read whose lines are all resident checks residency before
	// it asks the translator anything: the re-read makes no read and no
	// Lookup, on object pages and plain pages alike.
	for _, objects := range []int{8, 0} {
		tr := newObjTranslator(objects, 0)
		f := objFPGA(Config{}, tr)
		addr := rigBase + mem.PageSize + 3*line
		got := make([]byte, 2*mem.PageSize)
		if _, err := f.Read(0, addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tr.remoteAt(addr, len(got))) || len(tr.reads) != 1 {
			t.Fatalf("objects %d: span read: bytes intact %t, %d reads; want true, 1",
				objects, bytes.Equal(got, tr.remoteAt(addr, len(got))), len(tr.reads))
		}
		lookups := tr.lookup
		if _, err := f.Read(0, addr, got); err != nil {
			t.Fatal(err)
		}
		if len(tr.reads) != 1 || tr.lookup != lookups {
			t.Fatalf("objects %d: a hit on resident lines made %d reads and %d Lookups",
				objects, len(tr.reads)-1, tr.lookup-lookups)
		}
	}
}

// shortReads is objTranslator refusing any read that reaches past its page.
type shortReads struct{ *objTranslator }

func (t shortReads) ReadRange(now simclock.Duration, p Page, off uint64, buf []byte) (simclock.Duration, error) {
	if off+uint64(len(buf)) > mem.PageSize {
		return now, errors.New("read crosses a page")
	}
	return t.objTranslator.ReadRange(now, p, off, buf)
}

// TestFailedSpanReadHooksEachPageOnce: when a multi-page Read's span read
// fails, each page's write-before-read hook has already run, so each page
// is read on its own without running it again; the bytes come back right
// and one SpanFallbacks is counted.
func TestFailedSpanReadHooksEachPageOnce(t *testing.T) {
	tr := newObjTranslator(0, 0)
	f := New(Config{FMemSize: 64 * mem.PageSize}, shortReads{tr}, nil)
	hooks := map[mem.Addr]int{}
	f.SetFetchHook(func(now simclock.Duration, base mem.Addr) simclock.Duration {
		hooks[base]++
		return now
	})
	addr := rigBase + 2*line
	got := make([]byte, 2*mem.PageSize+100)
	if _, err := f.Read(0, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, tr.remoteAt(addr, len(got))) {
		t.Fatal("read after a failed span read returned the wrong bytes")
	}
	for p := 0; p < 3; p++ {
		if base := rigBase + mem.Addr(p)*mem.PageSize; hooks[base] != 1 {
			t.Errorf("page %d's hook ran %d times, want 1", p, hooks[base])
		}
	}
	if st := f.Stats(); st.SpanFallbacks != 1 {
		t.Fatalf("SpanFallbacks = %d, want 1", st.SpanFallbacks)
	}
}
