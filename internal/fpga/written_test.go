package fpga

import (
	"bytes"
	"testing"

	"kona/internal/mem"
	"kona/internal/simclock"
)

// Written-lines masks (DESIGN.md §16): a fill of a page with unwritten
// lines zeroes the missing unwritten ones and brings the missing written
// ones over in one round trip — one ReadRange for one run, otherwise one
// ReadGather with a span per run when the runs are of equal length and a
// span per line when they are not.

// written is the mask of lines [lo, hi) of each given pair.
func written(ranges ...int) mem.LineBitmap {
	var b mem.LineBitmap
	for i := 0; i < len(ranges); i += 2 {
		b.SetRange(ranges[i], ranges[i+1])
	}
	return b
}

// wantPage checks a page read back as remote memory's bytes on the written
// lines and zeros on the others.
func wantPage(t *testing.T, tr *objTranslator, base mem.Addr, w mem.LineBitmap, got []byte) {
	t.Helper()
	for l := 0; l < mem.LinesPerPage; l++ {
		want := make([]byte, line)
		if w.Get(l) {
			want = tr.remoteAt(base+mem.Addr(l*line), line)
		}
		if !bytes.Equal(got[l*line:(l+1)*line], want) {
			t.Fatalf("line %d (written %t): wrong bytes", l, w.Get(l))
		}
	}
}

func TestPartlyWrittenPageFillsInOneRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		written mem.LineBitmap
		reads   []objRead // ReadRange calls
		gather  []objRead // the one ReadGather's spans, if any
	}{
		{"equal runs gather a span per run", written(0, 9, 16, 25, 32, 41, 48, 57), nil,
			[]objRead{{rigBase, 0, 9 * line}, {rigBase, 16 * line, 9 * line}, {rigBase, 32 * line, 9 * line}, {rigBase, 48 * line, 9 * line}}},
		{"unequal runs gather a span per line", written(0, 2, 16, 17), nil,
			[]objRead{{rigBase, 0, line}, {rigBase, line, line}, {rigBase, 16 * line, line}}},
		{"one run is one read", written(3, 12), []objRead{{rigBase, 3 * line, 9 * line}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newObjTranslator(0, 0)
			tr.unwritten = map[mem.Addr]mem.LineBitmap{rigBase: ^tc.written}
			f := objFPGA(Config{}, tr)
			hooks := 0
			f.SetFetchHook(func(now simclock.Duration, _ mem.Addr) simclock.Duration { hooks++; return now })
			got := bytes.Repeat([]byte{0xFF}, mem.PageSize)
			if _, err := f.Read(0, rigBase+20*line, got[:10]); err != nil { // a line nobody wrote
				t.Fatal(err)
			}
			if _, err := f.Read(0, rigBase, got); err != nil {
				t.Fatal(err)
			}
			wantPage(t, tr, rigBase, tc.written, got)
			tr.wantReads(t, tc.reads...)
			if tc.gather == nil && len(tr.gathers) != 0 || tc.gather != nil && (len(tr.gathers) != 1 || len(tr.gathers[0]) != len(tc.gather)) {
				t.Fatalf("gathers = %+v, want one of %+v", tr.gathers, tc.gather)
			}
			for i, g := range tc.gather {
				if tr.gathers[0][i] != g {
					t.Fatalf("gather span %d = %+v, want %+v", i, tr.gathers[0][i], g)
				}
			}
			st := f.Stats()
			if hooks != 1 || st.RemoteFetches != 1 || st.FreshFills != 1 || st.BytesFetched != uint64(tc.written.Count()*line) {
				t.Fatalf("%d hook calls, RemoteFetches %d, FreshFills %d, BytesFetched %d; want 1, 1, 1, %d",
					hooks, st.RemoteFetches, st.FreshFills, st.BytesFetched, tc.written.Count()*line)
			}
			if d := f.DirtyLines(rigBase); d != 0 {
				t.Fatalf("a fill dirtied lines %#x", uint64(d))
			}
		})
	}
}

// TestPartlyWrittenPageKeepsPresentLines: a line written locally before
// the fill is neither fetched nor zeroed, wherever it falls.
func TestPartlyWrittenPageKeepsPresentLines(t *testing.T) {
	tr := newObjTranslator(0, 0)
	w := written(0, 9, 16, 25)
	tr.unwritten = map[mem.Addr]mem.LineBitmap{rigBase: ^w}
	f := objFPGA(Config{}, tr)
	mine := bytes.Repeat([]byte{0xA1}, 2*line)
	if _, err := f.Write(0, rigBase+4*line, mine[:line]); err != nil { // a written line
		t.Fatal(err)
	}
	if _, err := f.Write(0, rigBase+30*line, mine[line:]); err != nil { // an unwritten one
		t.Fatal(err)
	}
	got := make([]byte, mem.PageSize)
	if _, err := f.Read(0, rigBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[4*line:5*line], mine[:line]) || !bytes.Equal(got[30*line:31*line], mine[line:]) {
		t.Fatal("the fill overwrote a line written locally")
	}
	copy(got[4*line:], tr.remoteAt(rigBase+4*line, line))
	copy(got[30*line:], make([]byte, line))
	wantPage(t, tr, rigBase, w, got)
	// Lines 0..3, 5..8 and 16..24 are missing and written: unequal runs.
	if len(tr.reads) != 0 || len(tr.gathers) != 1 || len(tr.gathers[0]) != 17 {
		t.Fatalf("reads %+v, gathers %+v; want one gather of 17 lines", tr.reads, tr.gathers)
	}
}

// TestSpanReadSkipsUnwrittenLines: a two-page Read over a fully written
// page and a page whose first four lines were written is one contiguous
// read; the second page's other lines read as zeros.
func TestSpanReadSkipsUnwrittenLines(t *testing.T) {
	tr := newObjTranslator(0, 0)
	w := written(0, 4)
	tr.unwritten = map[mem.Addr]mem.LineBitmap{rigBase + mem.PageSize: ^w}
	f := objFPGA(Config{}, tr)
	got := make([]byte, 2*mem.PageSize)
	if _, err := f.Read(0, rigBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:mem.PageSize], tr.remoteAt(rigBase, mem.PageSize)) {
		t.Fatal("written page read back wrong bytes")
	}
	wantPage(t, tr, rigBase+mem.PageSize, w, got[mem.PageSize:])
	tr.wantReads(t, objRead{rigBase, 0, mem.PageSize + 4*line})
	if len(tr.gathers) != 0 {
		t.Fatalf("span read also gathered: %+v", tr.gathers)
	}
}

// TestWriteEndingInUnwrittenLineReadsNothing: a write that ends part-way
// through a line nobody wrote zeroes it instead of reading it for
// ownership, and leaves the page's written lines for the first fill that
// needs one: the read after it makes the one gather.
func TestWriteEndingInUnwrittenLineReadsNothing(t *testing.T) {
	tr := newObjTranslator(0, 0)
	w := written(0, 9, 16, 25)
	tr.unwritten = map[mem.Addr]mem.LineBitmap{rigBase: ^w}
	f := objFPGA(Config{}, tr)
	rec := bytes.Repeat([]byte{0xD2}, 3*line+10) // lines 32..35, the last in part
	if _, err := f.Write(0, rigBase+32*line, rec); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); len(tr.reads) != 0 || len(tr.gathers) != 0 || st.RemoteFetches != 0 || st.FreshFills != 1 {
		t.Fatalf("write: %d reads, %d gathers, RemoteFetches %d, FreshFills %d; want 0, 0, 0, 1",
			len(tr.reads), len(tr.gathers), st.RemoteFetches, st.FreshFills)
	}
	got := make([]byte, mem.PageSize)
	if _, err := f.Read(0, rigBase, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[32*line:32*line+len(rec)], rec) {
		t.Fatal("the record written before the fill was lost")
	}
	copy(got[32*line:], make([]byte, len(rec)))
	wantPage(t, tr, rigBase, w, got)
	if st := f.Stats(); len(tr.gathers) != 1 || st.RemoteFetches != 1 || st.Fetches[FetchRead] != 1 {
		t.Fatalf("read: %d gathers, RemoteFetches %d (read %d); want 1, 1, 1", len(tr.gathers), st.RemoteFetches, st.Fetches[FetchRead])
	}
}
