package fpga

import (
	"bytes"
	"testing"

	"kona/internal/mem"
)

func TestStridePrefetchEndToEnd(t *testing.T) {
	rig := newRigDepth(t, 64, 4)
	f := rig.fpga
	// Stride-2 page touches; after the window fills, the prefetcher
	// should be covering upcoming pages.
	for pg := uint64(0); pg < 20; pg += 2 {
		if _, err := f.LineFill(0, rigBase+mem.Addr(pg*mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().Prefetches == 0 {
		t.Fatalf("stride prefetcher idle")
	}
	// The next stride target should already be resident.
	if !f.Resident(rigBase + 20*mem.PageSize) {
		t.Errorf("stride target not prefetched")
	}
}

// newRigDepth builds a rig with a stride prefetcher of the given depth.
func newRigDepth(t *testing.T, fmemPages, depth int) *testRig {
	t.Helper()
	rig := newRig(t, fmemPages, 1)
	// Rebuild the FPGA with stride prefetching on the same translator.
	rig.rebuild(Config{FMemSize: uint64(fmemPages) * mem.PageSize, PrefetchDepth: depth})
	return rig
}

func TestSubPageFetchMovesLessData(t *testing.T) {
	mkF := func(fetch uint64) *FPGA {
		rig := newRig(t, 64, 0)
		cfg := Config{FMemSize: 64 * mem.PageSize, FetchBytes: fetch}
		return New(cfg, rig.fpga.translate, nil)
	}
	// Touch one line in each of 32 pages (pure random-access pattern).
	touch := func(f *FPGA) {
		for pg := uint64(0); pg < 32; pg++ {
			if _, err := f.LineFill(0, rigBase+mem.Addr(pg*mem.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
	}
	full := mkF(0) // 4KB
	touch(full)
	sub := mkF(512)
	touch(sub)
	if full.Stats().BytesFetched != 32*mem.PageSize {
		t.Errorf("full fetch bytes = %d", full.Stats().BytesFetched)
	}
	if sub.Stats().BytesFetched != 32*512 {
		t.Errorf("sub fetch bytes = %d, want %d", sub.Stats().BytesFetched, 32*512)
	}
	// Reading another line in the same page triggers a second sub-fetch
	// but no new full fetch.
	if _, err := sub.LineFill(0, rigBase+mem.Addr(16*mem.CacheLineSize)); err != nil {
		t.Fatal(err)
	}
	if sub.Stats().BytesFetched != 32*512+512 {
		t.Errorf("second block fetch missing: %d", sub.Stats().BytesFetched)
	}
}

func TestSubPageRMWPreservesLocalWrites(t *testing.T) {
	rig := newRig(t, 8, 0)
	cfg := Config{FMemSize: 8 * mem.PageSize, FetchBytes: 512}
	f := New(cfg, rig.fpga.translate, nil)
	// Remote content: distinct bytes.
	for i := range rig.pool.Bytes()[:4096] {
		rig.pool.Bytes()[i] = byte(i % 250)
	}
	// Partial-line local write before any fetch: RMW must merge with
	// remote bytes, and the merged line must survive later block fills.
	if _, err := f.Write(0, rigBase+100, []byte{0xEE, 0xEF}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := f.Read(0, rigBase+96, buf); err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(96 % 250), byte(97 % 250), byte(98 % 250), byte(99 % 250), 0xEE, 0xEF, byte(102 % 250), byte(103 % 250)}
	if !bytes.Equal(buf, want) {
		t.Fatalf("RMW merge = %x, want %x", buf, want)
	}
	// A read in a different block of the same page must not clobber the
	// written line.
	if _, err := f.Read(0, rigBase+2048, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(0, rigBase+100, buf[:2]); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE || buf[1] != 0xEF {
		t.Fatalf("local write clobbered by block fill: %x", buf[:2])
	}
}

func TestFetchGeometryPanics(t *testing.T) {
	rig := newRig(t, 8, 0)
	for _, fb := range []uint64{32, 96, 8192} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fetch bytes %d accepted", fb)
				}
			}()
			New(Config{FMemSize: 8 * mem.PageSize, FetchBytes: fb}, rig.fpga.translate, nil)
		}()
	}
}
