package fpga

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"kona/internal/mem"
	"kona/internal/rdma"
	"kona/internal/simclock"
)

// testRig wires an FPGA to one simulated memory node.
type testRig struct {
	fpga    *FPGA
	pool    *rdma.MR // remote pool
	victims []Victim
}

// rigTranslator maps VFMem addresses [base, base+size) to pool offsets 0..size.
type rigTranslator struct {
	base    mem.Addr
	size    uint64
	qp      *rdma.QP
	staging *rdma.MR
	poolKey uint32
}

// Lookup implements Translator: the rig's pages are plain, routed to their
// offset in the pool.
func (t *rigTranslator) Lookup(base mem.Addr) Page {
	return Page{Base: base, Route: Route{Via: t, Off: uint64(base - t.base)}}
}

// ReadRange implements Translator over the test rig's QP.
func (t *rigTranslator) ReadRange(now simclock.Duration, p Page, off uint64, buf []byte) (simclock.Duration, error) {
	addr := p.Base
	if addr < t.base || uint64(addr-t.base) >= t.size {
		return now, fmt.Errorf("no slab for %v", addr)
	}
	done, err := t.qp.PostSend(now, []rdma.WR{{
		Op: rdma.OpRead, Local: t.staging, RemoteKey: t.poolKey,
		RemoteOff: int(uint64(addr-t.base) + off), Len: len(buf), Signaled: true,
	}})
	if err != nil {
		return now, err
	}
	t.qp.PollCQ()
	copy(buf, t.staging.Bytes())
	return done, nil
}

// ReadGather implements Translator as one ReadRange per span.
func (t *rigTranslator) ReadGather(now simclock.Duration, p Page, offs []uint64, bufs [][]byte) (simclock.Duration, error) {
	done := now
	for i, off := range offs {
		var err error
		if done, err = t.ReadRange(done, p, off, bufs[i]); err != nil {
			return now, err
		}
	}
	return done, nil
}

const rigBase = mem.Addr(1 << 40)

func newRig(t *testing.T, fmemPages, prefetchDepth int) *testRig {
	t.Helper()
	local := rdma.NewEndpoint("compute")
	remote := rdma.NewEndpoint("memnode")
	pool := remote.RegisterMR(1 << 20)
	staging := local.RegisterMR(mem.PageSize)
	qp := rdma.Connect(local, remote, rdma.DefaultCostModel())
	rig := &testRig{pool: pool}
	tr := &rigTranslator{base: rigBase, size: 1 << 20, qp: qp, staging: staging, poolKey: pool.Key()}
	cfg := Config{FMemSize: uint64(fmemPages) * mem.PageSize, PrefetchDepth: prefetchDepth}
	rig.fpga = New(cfg, tr, func(now simclock.Duration, v Victim) simclock.Duration {
		cp := Victim{Base: v.Base, Data: append([]byte(nil), v.Data...), Dirty: v.Dirty}
		rig.victims = append(rig.victims, cp)
		return 0
	})
	return rig
}

// rebuild replaces the rig's FPGA with one of the given geometry on the
// same translator, recording victims like newRig does.
func (rig *testRig) rebuild(cfg Config) *FPGA {
	rig.victims = nil
	rig.fpga = New(cfg, rig.fpga.translate, func(now simclock.Duration, v Victim) simclock.Duration {
		rig.victims = append(rig.victims, Victim{Base: v.Base, Data: append([]byte(nil), v.Data...), Dirty: v.Dirty})
		return 0
	})
	return rig.fpga
}

func TestLineFillFetchesOnceThenHits(t *testing.T) {
	rig := newRig(t, 8, 0)
	f := rig.fpga
	d1, err := f.LineFill(0, rigBase)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.RemoteFetches != 1 {
		t.Fatalf("remote fetches = %d, want 1", st.RemoteFetches)
	}
	// Cold fill pays the RDMA page read: well over FMem latency.
	if d1 < 2*simclock.FMemAccess {
		t.Errorf("cold fill latency %v suspiciously low", d1)
	}
	// Same page, different line: FMem hit, no new fetch.
	d2, err := f.LineFill(d1, rigBase+64)
	if err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.RemoteFetches != 1 || st.FMemHits != 1 {
		t.Errorf("stats after hit = %+v", st)
	}
	if hitLat := d2 - d1; hitLat > simclock.FMemAccess+simclock.FPGADirectory {
		t.Errorf("FMem hit latency %v too high", hitLat)
	}
	if !f.Resident(rigBase) {
		t.Errorf("page not resident")
	}
}

func TestReadSeesRemoteData(t *testing.T) {
	rig := newRig(t, 8, 0)
	copy(rig.pool.Bytes()[128:], []byte("remote payload"))
	buf := make([]byte, 14)
	if _, err := rig.fpga.Read(0, rigBase+128, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "remote payload" {
		t.Fatalf("read = %q", buf)
	}
}

func TestReadAcrossPageBoundary(t *testing.T) {
	rig := newRig(t, 8, 0)
	for i := range rig.pool.Bytes()[:8192] {
		rig.pool.Bytes()[i] = byte(i % 251)
	}
	buf := make([]byte, 1000)
	start := mem.Addr(4096 - 500)
	if _, err := rig.fpga.Read(0, rigBase+start, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		want := byte((int(start) + i) % 251)
		if buf[i] != want {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], want)
		}
	}
	if rig.fpga.Stats().RemoteFetches != 2 {
		t.Errorf("fetches = %d, want 2 pages", rig.fpga.Stats().RemoteFetches)
	}
}

func TestWriteSetsDirtyBits(t *testing.T) {
	rig := newRig(t, 8, 0)
	payload := bytes.Repeat([]byte{0xCD}, 130)
	if _, err := rig.fpga.Write(0, rigBase+100, payload); err != nil {
		t.Fatal(err)
	}
	dirty := rig.fpga.DirtyLines(rigBase)
	// Bytes [100,230) cover lines 1..3.
	if dirty.Count() != 3 || !dirty.Get(1) || !dirty.Get(2) || !dirty.Get(3) {
		t.Errorf("dirty = %b (count %d), want lines 1-3", dirty, dirty.Count())
	}
	// The data is in the frame: read it back.
	buf := make([]byte, 130)
	if _, err := rig.fpga.Read(0, rigBase+100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Errorf("read-back mismatch")
	}
}

func TestEvictionDeliversDirtyVictim(t *testing.T) {
	// FMem of 4 pages, assoc 4 => one set; fifth page evicts LRU.
	rig := newRig(t, 4, 0)
	f := rig.fpga
	if _, err := f.Write(0, rigBase, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	for p := 1; p < 4; p++ {
		if _, err := f.LineFill(0, rigBase+mem.Addr(p*mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if len(rig.victims) != 0 {
		t.Fatalf("premature evictions")
	}
	if _, err := f.LineFill(0, rigBase+4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if len(rig.victims) != 1 {
		t.Fatalf("victims = %d, want 1", len(rig.victims))
	}
	v := rig.victims[0]
	if v.Base != rigBase {
		t.Errorf("victim base = %v, want %v (LRU)", v.Base, rigBase)
	}
	if v.Dirty.Count() != 1 || !v.Dirty.Get(0) {
		t.Errorf("victim dirty = %b", v.Dirty)
	}
	if v.Data[0] != 1 {
		t.Errorf("victim data lost")
	}
	st := f.Stats()
	if st.Evictions != 1 || st.DirtyEvicts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFlush(t *testing.T) {
	rig := newRig(t, 8, 0)
	f := rig.fpga
	if _, err := f.Write(0, rigBase, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LineFill(0, rigBase+mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if !f.FlushPage(0, rigBase) {
		t.Fatalf("FlushPage missed resident page")
	}
	if f.FlushPage(0, rigBase) {
		t.Fatalf("FlushPage hit non-resident page")
	}
	// The remaining page is clean: a write-back barrier has nothing to do
	// with it, and an explicit invalidation drops it without a victim.
	if flushed, retained := f.FlushDirty(0); flushed != 0 || retained != 1 {
		t.Errorf("FlushDirty = (%d flushed, %d retained), want (0, 1)", flushed, retained)
	}
	if n := f.DropRange(0, math.MaxUint64); n != 1 || f.Occupancy() != 0 {
		t.Errorf("DropRange dropped %d, occupancy %d; want 1, 0", n, f.Occupancy())
	}
	if len(rig.victims) != 1 {
		t.Errorf("victims = %d, want 1", len(rig.victims))
	}
}

func TestPrefetchSequential(t *testing.T) {
	rig := newRig(t, 16, 1)
	f := rig.fpga
	// Touch pages 0,1 sequentially: page 2 should be prefetched.
	if _, err := f.LineFill(0, rigBase); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LineFill(0, rigBase+mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Prefetches == 0 {
		t.Fatalf("no prefetch on sequential fills")
	}
	if !f.Resident(rigBase + 2*mem.PageSize) {
		t.Errorf("prefetched page not resident")
	}
	// The prefetched page is a hit now — and the sequential hit keeps the
	// prefetcher running (page 3 fetched in the background).
	hitsBefore := f.Stats().FMemHits
	if _, err := f.LineFill(0, rigBase+2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if f.Stats().FMemHits != hitsBefore+1 {
		t.Errorf("prefetched page was not a hit")
	}
	if !f.Resident(rigBase + 3*mem.PageSize) {
		t.Errorf("prefetch chain stopped on hit")
	}
}

func TestTranslateErrorPropagates(t *testing.T) {
	rig := newRig(t, 8, 0)
	if _, err := rig.fpga.LineFill(0, mem.Addr(1)); err == nil {
		t.Fatalf("fill outside slabs succeeded")
	}
	buf := make([]byte, 8)
	if _, err := rig.fpga.Read(0, mem.Addr(1), buf); err == nil {
		t.Fatalf("read outside slabs succeeded")
	}
}

func TestDirectoryContention(t *testing.T) {
	rig := newRig(t, 8, 0)
	f := rig.fpga
	// Warm a page, then issue two hits at the same arrival time: the
	// second must depart later (single directory port).
	if _, err := f.LineFill(0, rigBase); err != nil {
		t.Fatal(err)
	}
	// Arrive well after the fill has landed so readyAt is in the past.
	arrival := 100 * simclock.Duration(1000)
	d1, _ := f.LineFill(arrival, rigBase)
	d2, _ := f.LineFill(arrival, rigBase+64)
	if d2 <= d1 {
		t.Errorf("no directory serialization: %v then %v", d1, d2)
	}
}

func TestGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{FMemSize: 0},
		{FMemSize: mem.PageSize},
		{FMemSize: mem.PageSize * 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cfg %+v: expected panic", cfg)
				}
			}()
			New(cfg, nil, nil)
		}()
	}
}

// Cached answers for one line, not its page: with 64 B fetches a read of
// line 2 leaves only that line present, and a write ending part-way
// through a cached line reads nothing for ownership, while one ending in
// an uncached line of the same resident page does.
func TestCachedIsPerLine(t *testing.T) {
	rig := newRig(t, 8, 0)
	f := rig.rebuild(Config{FMemSize: 8 * mem.PageSize, FetchBytes: mem.CacheLineSize})
	line := func(l int) mem.Addr { return rigBase + mem.Addr(l*mem.CacheLineSize) }
	if f.Cached(line(2)) {
		t.Fatal("line of an empty FMem reported cached")
	}
	if _, err := f.Read(0, line(2), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if !f.Cached(line(2)) || !f.Cached(line(2)+63) {
		t.Fatal("line just read is not cached")
	}
	if !f.Resident(line(3)) || f.Cached(line(3)) || f.Cached(rigBase+mem.PageSize) {
		t.Fatal("a line never fetched, or a page never touched, reported cached")
	}
	rfo := func() uint64 { return f.Stats().Fetches[FetchRFO] }
	if _, err := f.Write(0, line(2), make([]byte, 10)); err != nil || rfo() != 0 {
		t.Fatalf("write into a cached line: err=%v, %d RFOs, want 0", err, rfo())
	}
	if _, err := f.Write(0, line(3), make([]byte, 10)); err != nil || rfo() != 1 {
		t.Fatalf("write into an uncached line: err=%v, %d RFOs, want 1", err, rfo())
	}
	if !f.Cached(line(3)) {
		t.Fatal("line written after its RFO is not cached")
	}
}
