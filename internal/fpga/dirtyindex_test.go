package fpga

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"kona/internal/mem"
)

// walkResident counts valid frames the slow way — the reference the
// per-shard resident counters are checked against.
func walkResident(f *FPGA) int {
	n := 0
	for _, set := range f.sets {
		for _, fr := range set {
			if fr.valid {
				n++
			}
		}
	}
	return n
}

// walkDirtyOrder is the full-walk FlushDirty order: every valid dirty
// frame, ascending set index, way order within the set.
func walkDirtyOrder(f *FPGA) []mem.Addr {
	var out []mem.Addr
	for _, set := range f.sets {
		for _, fr := range set {
			if fr.valid && fr.dirty.Any() {
				out = append(out, fr.base)
			}
		}
	}
	return out
}

func rigPage(p int) mem.Addr { return rigBase + mem.Addr(p)*mem.PageSize }

func victimBases(vs []Victim) []mem.Addr {
	out := make([]mem.Addr, len(vs))
	for i, v := range vs {
		out[i] = v.Base
	}
	return out
}

// TestResidentCounterMatchesWalk drives every way a frame enters or leaves
// FMem and checks Occupancy (the counters) against a brute-force walk after
// each, and FlushDirty's retained against the same walk.
func TestResidentCounterMatchesWalk(t *testing.T) {
	rig := newRig(t, 16, 0)
	// 4 sets x 4 ways over 2 stripes.
	f := rig.rebuild(Config{FMemSize: 16 * mem.PageSize, Shards: 2})
	check := func(step string, want int) {
		t.Helper()
		if got, walk := f.Occupancy(), walkResident(f); got != walk || got != want {
			t.Fatalf("%s: Occupancy = %d, walk = %d, want %d", step, got, walk, want)
		}
	}
	buf := make([]byte, 8)
	line := bytes.Repeat([]byte{0xAB}, mem.CacheLineSize)
	check("empty", 0)
	for p := 0; p < 16; p++ { // install: fill every frame, pages 0..7 dirty
		var err error
		if p < 8 {
			_, err = f.Write(0, rigPage(p), line)
		} else {
			_, err = f.Read(0, rigPage(p), buf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	check("install", 16)
	for p := 16; p < 20; p++ { // capacity evict: one victim per set
		if _, err := f.Read(0, rigPage(p), buf); err != nil {
			t.Fatal(err)
		}
	}
	check("capacity evict", 16)
	if !f.FlushPage(0, rigPage(4)) || f.FlushPage(0, rigPage(0)) {
		t.Fatal("FlushPage: page 4 must be resident, page 0 (evicted above) must not")
	}
	check("FlushPage", 15)
	if n := f.DropRange(rigPage(5), 2*mem.PageSize); n != 2 { // dirty pages 5, 6
		t.Fatalf("DropRange dropped %d frames, want 2", n)
	}
	check("DropRange of dirty frames", 13)
	flushed, retained := f.FlushDirty(0) // page 7 is the one dirty frame left
	if flushed != 1 || retained != 12 {
		t.Fatalf("FlushDirty = (%d, %d), want (1, 12)", flushed, retained)
	}
	check("FlushDirty", 12)
}

// TestDirtyIndexStaleBits: a dirty frame that left for capacity, or was
// dropped, before the Sync leaves its set's bit up; FlushDirty must neither
// hand the capacity victim to the handler a second time nor flush a
// phantom for the dropped one, and must take the bits down.
func TestDirtyIndexStaleBits(t *testing.T) {
	rig := newRig(t, 8, 0)
	f := rig.rebuild(Config{FMemSize: 8 * mem.PageSize}) // 2 sets
	line := bytes.Repeat([]byte{0xCD}, mem.CacheLineSize)
	buf := make([]byte, 8)
	if _, err := f.Write(0, rigPage(0), line); err != nil { // set 0, dirty
		t.Fatal(err)
	}
	if _, err := f.Write(0, rigPage(1), line); err != nil { // set 1, dirty
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 6, 8} { // push page 0 out of set 0
		if _, err := f.Read(0, rigPage(p), buf); err != nil {
			t.Fatal(err)
		}
	}
	if len(rig.victims) != 1 || rig.victims[0].Base != rigPage(0) || !rig.victims[0].Dirty.Any() {
		t.Fatalf("setup: capacity victims = %v, want dirty page 0", victimBases(rig.victims))
	}
	if n := f.DropRange(rigPage(1), mem.PageSize); n != 1 {
		t.Fatalf("DropRange dropped %d, want 1", n)
	}
	if f.dirtySets[0].Load() != 0b11 {
		t.Fatalf("setup: dirty-set index = %b, want both sets still raised", f.dirtySets[0].Load())
	}
	flushed, retained := f.FlushDirty(0)
	if flushed != 0 || retained != 4 || len(rig.victims) != 1 {
		t.Fatalf("FlushDirty = (%d, %d) with %d victims in all, want (0, 4) and 1",
			flushed, retained, len(rig.victims))
	}
	if w := f.dirtySets[0].Load(); w != 0 {
		t.Fatalf("dirty-set index after FlushDirty = %b, want 0", w)
	}
}

// TestFlushDirtyOrderMatchesFullWalk: on a randomised fill the indexed
// FlushDirty evicts exactly the frames, in exactly the order, a walk over
// every set would — fixed-seed artifacts depend on that order. Dirty and
// clean pages, capacity evictions and a second round (bits re-raised after
// a flush) are all in the mix; 70 sets make the index span two words.
func TestFlushDirtyOrderMatchesFullWalk(t *testing.T) {
	rig := newRig(t, 8, 0)
	rng := rand.New(rand.NewSource(21))
	for _, shards := range []int{1, 8} {
		f := rig.rebuild(Config{FMemSize: 70 * 4 * mem.PageSize, Shards: shards})
		for round := 0; round < 3; round++ {
			for i := 0; i < 150; i++ {
				a := rigPage(rng.Intn(256)) + mem.Addr(rng.Intn(mem.LinesPerPage)*mem.CacheLineSize)
				var err error
				if rng.Intn(3) == 0 {
					_, err = f.Write(0, a, []byte{byte(i)})
				} else {
					_, err = f.Read(0, a, make([]byte, 8))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			want := walkDirtyOrder(f)
			clean := walkResident(f) - len(want)
			rig.victims = rig.victims[:0]
			flushed, retained := f.FlushDirty(0)
			got := victimBases(rig.victims)
			if len(want) == 0 || flushed != len(want) || retained != clean {
				t.Fatalf("shards=%d round %d: FlushDirty = (%d, %d), walk says (%d, %d)",
					shards, round, flushed, retained, len(want), clean)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d round %d: eviction %d is %v, full walk says %v", shards, round, i, got[i], want[i])
				}
			}
			if left := walkDirtyOrder(f); len(left) != 0 {
				t.Fatalf("shards=%d round %d: %d dirty frames survived FlushDirty", shards, round, len(left))
			}
		}
	}
}

// TestFillDirectAndStaged covers both arms of the block fill: a fresh
// block is read straight into the frame, a block that already holds a
// locally written line is staged and merged around it.
func TestFillDirectAndStaged(t *testing.T) {
	rig := newRig(t, 8, 0)
	f := rig.fpga
	remote := rig.pool.Bytes()[:2*mem.PageSize]
	for i := range remote {
		remote[i] = byte(i%249 + 1)
	}
	got := make([]byte, mem.PageSize)
	if _, err := f.Read(0, rigPage(0), got); err != nil { // fresh frame: direct
		t.Fatal(err)
	}
	if !bytes.Equal(got, remote[:mem.PageSize]) {
		t.Fatal("direct fill: frame differs from remote page")
	}
	if f.shards[0].scratch != nil {
		t.Error("direct fill allocated the staging buffer")
	}
	// Claim line 3 of page 1 with a full-line write (no fetch), then read
	// the page: the fill must keep line 3 and bring in the other 63.
	local := bytes.Repeat([]byte{0xEE}, mem.CacheLineSize)
	if _, err := f.Write(0, rigPage(1)+3*mem.CacheLineSize, local); err != nil {
		t.Fatal(err)
	}
	if n := f.Stats().RemoteFetches; n != 1 {
		t.Fatalf("full-line write fetched (%d fetches, want 1)", n)
	}
	if _, err := f.Read(0, rigPage(1), got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), remote[mem.PageSize:]...)
	copy(want[3*mem.CacheLineSize:], local)
	if !bytes.Equal(got, want) {
		t.Fatal("staged fill: merged page wrong (local line clobbered or remote lines missing)")
	}
}

// TestConcurrentFlushDirtyEachCallCovers: with several Syncs in flight,
// each FlushDirty call still guarantees on its own that every page dirty
// when it began has gone through the handler when it returns — a caller
// must not return early because another caller had already claimed the
// set's bit. Workers share sets (and index words) but own their pages.
func TestConcurrentFlushDirtyEachCallCovers(t *testing.T) {
	rig := newRig(t, 8, 0)
	f := New(Config{FMemSize: 64 * mem.PageSize, Shards: 4}, rig.fpga.translate,
		func(simDur, Victim) simDur { return 0 })
	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := rigPage(w*16 + r%16) // 16 sets: every worker hits every set
				// A whole line: claimed without a fetch (the rig's
				// translator is single-threaded).
				if _, err := f.Write(0, a, bytes.Repeat([]byte{byte(r)}, mem.CacheLineSize)); err != nil {
					t.Error(err)
					return
				}
				f.FlushDirty(0)
				if d := f.DirtyLines(a); d != 0 {
					t.Errorf("worker %d round %d: page still dirty (%b) after its own FlushDirty", w, r, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
