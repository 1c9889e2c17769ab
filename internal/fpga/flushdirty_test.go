package fpga

import (
	"bytes"
	"testing"

	"kona/internal/mem"
)

// cleanFrame is everything FlushDirty must leave alone on a clean frame.
type cleanFrame struct {
	data       []byte
	filled     mem.LineBitmap
	lastUse    uint64
	readyAt    simDur
	prefetched bool
}

func snapshotClean(f *FPGA) map[mem.Addr]cleanFrame {
	out := make(map[mem.Addr]cleanFrame)
	for _, set := range f.sets {
		for _, fr := range set {
			if fr.valid && !fr.dirty.Any() {
				out[fr.base] = cleanFrame{
					data: append([]byte(nil), fr.data...), filled: fr.filled,
					lastUse: fr.lastUse, readyAt: fr.readyAt, prefetched: fr.prefetched,
				}
			}
		}
	}
	return out
}

// TestFlushDirtyEvictsDirtyKeepsClean pins the Sync-side contract: the
// walk hands each dirty frame to the Eviction Handler exactly once, in
// set order, and a clean frame keeps its data, filled bitmap, LRU stamp
// and prefetched flag, with no epoch bump on a stripe that held only
// clean frames.
func TestFlushDirtyEvictsDirtyKeepsClean(t *testing.T) {
	rig := newRig(t, 16, 1)
	// 16 pages, assoc 4 => 4 sets; 4 shards => one set per stripe.
	f := rig.rebuild(Config{FMemSize: 16 * mem.PageSize, Shards: 4, PrefetchDepth: 1})
	for i := range rig.pool.Bytes()[:16*mem.PageSize] {
		rig.pool.Bytes()[i] = byte(i % 251)
	}
	page := func(p int) mem.Addr { return rigBase + mem.Addr(p)*mem.PageSize }

	// Clean: pages 0, 1 and 3 by demand, page 2 by the sequential
	// prefetcher (0 then 1 is a run), so it carries prefetched=true.
	buf := make([]byte, 8)
	for _, p := range []int{0, 1, 3} {
		if _, err := f.Read(0, page(p), buf); err != nil {
			t.Fatal(err)
		}
	}
	// Dirty: page 4 shares set 0 with page 0; pages 5 and 9 share set 1
	// with page 1. Sets 2 and 3 stay clean-only.
	for _, p := range []int{4, 5, 9} {
		if _, err := f.Write(0, page(p)+128, []byte{0xD0 + byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotClean(f)
	if len(before) != 4 || !before[page(2)].prefetched {
		t.Fatalf("setup: %d clean frames (want 4), page 2 prefetched=%v", len(before), before[page(2)].prefetched)
	}
	var epochs [4]uint64
	for i := range f.shards {
		epochs[i] = f.shards[i].epoch.Load()
	}
	st0 := f.Stats()

	flushed, retained := f.FlushDirty(0)
	if flushed != 3 || retained != 4 {
		t.Fatalf("FlushDirty = (%d flushed, %d retained), want (3, 4)", flushed, retained)
	}
	wantOrder := []mem.Addr{page(4), page(5), page(9)}
	if len(rig.victims) != len(wantOrder) {
		t.Fatalf("victims = %d, want %d", len(rig.victims), len(wantOrder))
	}
	for i, v := range rig.victims {
		if v.Base != wantOrder[i] || !v.Dirty.Any() {
			t.Errorf("victim %d = %v dirty=%v, want dirty %v", i, v.Base, v.Dirty.Any(), wantOrder[i])
		}
		if f.Resident(v.Base) {
			t.Errorf("flushed page %v still resident", v.Base)
		}
	}
	st := f.Stats()
	if st.Evictions-st0.Evictions != 3 || st.DirtyEvicts-st0.DirtyEvicts != 3 {
		t.Errorf("eviction stats moved by %d/%d dirty, want 3/3",
			st.Evictions-st0.Evictions, st.DirtyEvicts-st0.DirtyEvicts)
	}

	after := snapshotClean(f)
	if len(after) != len(before) {
		t.Fatalf("clean frames after flush = %d, want %d", len(after), len(before))
	}
	for base, b := range before {
		a := after[base]
		if !bytes.Equal(a.data, b.data) || a.filled != b.filled || a.lastUse != b.lastUse ||
			a.readyAt != b.readyAt || a.prefetched != b.prefetched {
			t.Errorf("clean frame %v changed across FlushDirty", base)
		}
	}
	for _, i := range []int{2, 3} {
		if got := f.shards[i].epoch.Load(); got != epochs[i] {
			t.Errorf("clean-only stripe %d epoch %d -> %d", i, epochs[i], got)
		}
	}

	// Nothing is dirty any more: a second barrier is a no-op, and the
	// retained pages (the prefetched one included) hit without a fetch.
	if flushed, retained = f.FlushDirty(0); flushed != 0 || retained != 4 {
		t.Errorf("second FlushDirty = (%d, %d), want (0, 4)", flushed, retained)
	}
	if len(rig.victims) != 3 {
		t.Errorf("second FlushDirty produced victims: %d", len(rig.victims))
	}
	// (Descending, so the reads themselves do not look like a run and
	// prefetch flushed page 4 back in.)
	fetches := f.Stats().RemoteFetches
	for p := 3; p >= 0; p-- {
		if _, err := f.Read(0, page(p)+64, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, rig.pool.Bytes()[p*mem.PageSize+64:][:8]) {
			t.Errorf("page %d served wrong bytes after flush", p)
		}
	}
	if got := f.Stats().RemoteFetches; got != fetches {
		t.Errorf("reads of retained pages fetched %d times", got-fetches)
	}
}

// TestFlushDirtyKeepsPartialFill: with sub-page fetches a clean frame may
// hold only some of its blocks. The barrier must not disturb the filled
// bitmap — afterwards a new block costs one fetch and a held one none.
func TestFlushDirtyKeepsPartialFill(t *testing.T) {
	rig := newRig(t, 8, 0)
	f := rig.rebuild(Config{FMemSize: 8 * mem.PageSize, FetchBytes: 1024})
	for i := range rig.pool.Bytes()[:2*mem.PageSize] {
		rig.pool.Bytes()[i] = byte(i % 251)
	}
	buf := make([]byte, 8)
	if _, err := f.Read(0, rigBase, buf); err != nil { // block 0 of page 0
		t.Fatal(err)
	}
	if _, err := f.Write(0, rigBase+mem.PageSize, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	if flushed, retained := f.FlushDirty(0); flushed != 1 || retained != 1 {
		t.Fatalf("FlushDirty = (%d, %d), want (1, 1)", flushed, retained)
	}
	st0 := f.Stats()
	if _, err := f.Read(0, rigBase+2048, buf); err != nil { // block 2: missing
		t.Fatal(err)
	}
	if !bytes.Equal(buf, rig.pool.Bytes()[2048:2056]) {
		t.Errorf("block 2 = %x, want %x", buf, rig.pool.Bytes()[2048:2056])
	}
	if _, err := f.Read(0, rigBase+8, buf); err != nil { // block 0: held
		t.Fatal(err)
	}
	st := f.Stats()
	if st.RemoteFetches-st0.RemoteFetches != 1 || st.BytesFetched-st0.BytesFetched != 1024 {
		t.Errorf("after flush: %d fetches / %d bytes, want 1 / 1024",
			st.RemoteFetches-st0.RemoteFetches, st.BytesFetched-st0.BytesFetched)
	}
}
