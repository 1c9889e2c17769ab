package kv

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// mallocChunks is a runtime whose value-heap chunks all come from Malloc,
// whatever the class: the behaviour before fresh allocations, kept here as
// the reference the guard counts against.
type mallocChunks struct{ *core.Kona }

func (m mallocChunks) MallocBlocks(size, _ uint64) (mem.Addr, error) { return m.Malloc(size) }

// countedRack is a controller and two memory-node daemons on loopback TCP
// whose memnodes count what they serve into one registry.
func countedRack(t *testing.T) (ctrlAddr string, served func(kind string) uint64) {
	t.Helper()
	ctrlAddr, reg := countedRackReg(t)
	return ctrlAddr, func(kind string) uint64 {
		return reg.Counter("cluster.memnode.served." + kind).Value()
	}
}

// countedRackReg is countedRack handing out the memnodes' registry itself.
func countedRackReg(t *testing.T) (ctrlAddr string, reg *telemetry.Registry) {
	t.Helper()
	cs, err := cluster.ServeController(cluster.NewController(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cc := cluster.DialController(cs.Addr())
	defer cc.Close()
	reg = telemetry.New(0)
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ns := cluster.ServeMemoryNodeOnWith(cluster.NewMemoryNode(i, 128<<20), l, reg)
		t.Cleanup(func() { ns.Close() })
		if err := cc.RegisterNode(i, 128<<20, ns.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return cs.Addr(), reg
}

// TestFreshLoadFetchesNothing is the `make guards` count guard for fresh
// allocations (DESIGN.md §16), no timing in it: loading 20k keys into a
// kv.Store over a loopback TCP rack serves zero memnode read RPCs — the
// parent served one page read per page of the value heap — and exactly the
// write-log RPCs the same load costs over Malloc-backed chunks; then every
// key verifies from remote memory (every page the load left in FMem was
// dirty, so the Sync that ends the load wrote it back and dropped it: the
// read pass starts cold). The FMem is sized so that no shard's half-carved
// page is evicted before its next block is taken — such a page has been
// written back, is no longer fresh, and is rightly fetched.
func TestFreshLoadFetchesNothing(t *testing.T) {
	const keys = 20_000
	value := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 256) // 512 B
	}
	load := func(t *testing.T, wrap func(*core.Kona) Runtime) (reads, writeLogs uint64) {
		ctrlAddr, served := countedRack(t)
		k := core.NewKonaTCPWith(core.DefaultConfig(16<<20), ctrlAddr, kvTransport())
		s := NewStore(wrap(k), Config{Shards: 16})
		for i := 0; i < keys; i++ {
			if _, err := s.Set(0, fmt.Sprintf("key-%06d", i), value(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Sync(0); err != nil {
			t.Fatal(err)
		}
		reads, writeLogs = served("read")+served("read-pages"), served("write-log")
		var got []byte
		for i := 0; i < keys; i++ {
			var ok bool
			var err error
			if got, _, _, ok, err = s.Get(0, fmt.Sprintf("key-%06d", i), got); err != nil || !ok || !bytes.Equal(got, value(i)) {
				t.Fatalf("key %d after load: ok=%t err=%v, value intact=%t", i, ok, err, bytes.Equal(got, value(i)))
			}
		}
		if after := served("read") + served("read-pages"); after-reads < keys/8 {
			t.Fatalf("verify pass served %d reads: the keys did not come from remote memory", after-reads)
		}
		if err := k.Close(0); err != nil {
			t.Fatal(err)
		}
		return reads, writeLogs
	}
	freshReads, freshLogs := load(t, func(k *core.Kona) Runtime { return k })
	mallocReads, mallocLogs := load(t, func(k *core.Kona) Runtime { return mallocChunks{k} })
	t.Logf("load of %d keys: read RPCs %d (Malloc chunks %d), write-log RPCs %d (Malloc chunks %d)",
		keys, freshReads, mallocReads, freshLogs, mallocLogs)
	if freshReads != 0 {
		t.Errorf("load served %d memnode read RPCs, want 0", freshReads)
	}
	if mallocReads == 0 {
		t.Error("reference load over Malloc chunks served no reads: the guard compares nothing")
	}
	if freshLogs != mallocLogs {
		t.Errorf("load served %d write-log RPCs, %d over Malloc chunks: write-back must not change", freshLogs, mallocLogs)
	}
}

// TestMallocChunkLoadFetchesAreRFO recovers the finding behind fresh
// allocations from the fetch-cause counters alone: a 20 000-key load whose
// heap chunks come from Malloc fetches almost only to read for ownership —
// the set that carves a block out of a page ends in a partial line, and the
// line's remote contents must be read before it is written. Over
// MallocBlocks chunks the same load fetches nothing.
func TestMallocChunkLoadFetchesAreRFO(t *testing.T) {
	const keys = 20_000
	load := func(wrap func(*core.Kona) Runtime) fpga.Stats {
		k := simRuntime(t, 16<<20)
		s := NewStore(wrap(k), Config{Shards: 16})
		value := bytes.Repeat([]byte{0x5A}, 512)
		for i := 0; i < keys; i++ {
			if _, err := s.Set(0, fmt.Sprintf("key-%06d", i), value, 0); err != nil {
				t.Fatal(err)
			}
		}
		return k.FPGAStats()
	}
	st := load(func(k *core.Kona) Runtime { return mallocChunks{k} })
	var sum uint64
	for _, n := range st.Fetches {
		sum += n
	}
	rfo := st.Fetches[fpga.FetchRFO]
	t.Logf("Malloc-chunk load: %d fetches (read %d, rfo %d, prefetch %d)",
		st.RemoteFetches, st.Fetches[fpga.FetchRead], rfo, st.Fetches[fpga.FetchPrefetch])
	if sum != st.RemoteFetches || st.RemoteFetches == 0 {
		t.Fatalf("causes %v sum to %d, RemoteFetches %d", st.Fetches, sum, st.RemoteFetches)
	}
	if rfo*100 < st.RemoteFetches*99 {
		t.Errorf("%d of %d fetches are read-for-ownership, want ≥ 99%%", rfo, st.RemoteFetches)
	}
	if fresh := load(func(k *core.Kona) Runtime { return k }); fresh.RemoteFetches != 0 {
		t.Errorf("MallocBlocks-chunk load fetched %d times (by cause %v), want 0", fresh.RemoteFetches, fresh.Fetches)
	}
}

// TestGetFetchesOnlyWrittenLines is the `make guards` count guard for
// written-lines masks (DESIGN.md §16), over a loopback TCP rack, never
// timed. A one-shard store takes eight 512 B values, four to a page of the
// 1 KB class: each 536 B record writes 9 of its block's 16 lines. A Sync
// writes them back and leaves FMem cold. Then:
//   - a get makes exactly one RPC, and the memnodes send exactly the
//     page's 4 × 9 written lines (the whole 4 KB page before masks);
//   - a set of a 900 B value into a freed block of the other page, whose
//     record ends in a line the old record never reached, zeroes that line
//     instead of reading it: no `rfo` fetch and no memnode read RPC (one
//     of each before masks).
func TestGetFetchesOnlyWrittenLines(t *testing.T) {
	key := func(i int) string { return fmt.Sprintf("w-%02d", i) }
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 512) }
	if c := classOf(recordSize(len(key(0)), 512)); blockBytes(c) != 1024 || recordSize(len(key(0)), 512) > 9*mem.CacheLineSize {
		t.Fatalf("a %d B record takes class %d (%d B blocks), want 9 lines of a 1 KB block",
			recordSize(len(key(0)), 512), c, blockBytes(c))
	}
	ctrlAddr, reg := countedRackReg(t)
	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	rpcs := func() uint64 {
		return counter("cluster.memnode.served.read") + counter("cluster.memnode.served.read-pages")
	}
	cfg := core.DefaultConfig(16 << 20)
	cfg.Metrics = telemetry.New(0)
	k := core.NewKonaTCPWith(cfg, ctrlAddr, kvTransport())
	s := NewStore(k, Config{Shards: 1})
	sh := s.shards[0]
	for i := 0; i < 8; i++ {
		if _, err := s.Set(0, key(i), value(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	pageA, pageB := sh.idx[key(0)].addr.Page(), sh.idx[key(4)].addr.Page()
	for i := 0; i < 8; i++ {
		if p := sh.idx[key(i)].addr.Page(); p != pageA && i < 4 || p != pageB && i >= 4 || pageA == pageB {
			t.Fatalf("key %d on page %#x; want keys 0-3 on one page, 4-7 on another", i, p)
		}
	}
	if _, err := s.Sync(0); err != nil {
		t.Fatal(err)
	}

	rpcs0, bytes0 := rpcs(), counter("cluster.memnode.read_bytes")
	got, _, _, ok, err := s.Get(0, key(2), nil)
	if err != nil || !ok || !bytes.Equal(got, value(2)) {
		t.Fatalf("get %s: ok=%t err=%v, value intact=%t", key(2), ok, err, bytes.Equal(got, value(2)))
	}
	dRPCs, dBytes := rpcs()-rpcs0, counter("cluster.memnode.read_bytes")-bytes0
	t.Logf("cold get: %d RPCs, %d B sent by the memnodes", dRPCs, dBytes)
	if dRPCs != 1 || dBytes != 4*9*mem.CacheLineSize {
		t.Errorf("cold get: %d RPCs and %d B; want 1 and the 4 × 9 written lines, %d B", dRPCs, dBytes, 4*9*mem.CacheLineSize)
	}
	for i := 0; i < 4; i++ { // the rest of the page came with it
		if got, _, _, ok, err = s.Get(0, key(i), got); err != nil || !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("get %s: ok=%t err=%v, value intact=%t", key(i), ok, err, bytes.Equal(got, value(i)))
		}
	}
	if rpcs() != rpcs0+1 {
		t.Errorf("gets of the page's other keys made %d RPCs, want 0", rpcs()-rpcs0-1)
	}

	if _, ok, err := s.Delete(0, key(5)); err != nil || !ok {
		t.Fatalf("delete %s: ok=%t err=%v", key(5), ok, err)
	}
	freed := sh.idx[key(6)].addr - 1024
	big := bytes.Repeat([]byte{0xB9}, 900)
	rfo := cfg.Metrics.Counter("core.fpga.fetches.rfo")
	k.PublishTelemetry()
	rfo0, rpcs1 := rfo.Value(), rpcs()
	if _, err := s.Set(0, "w-big", big, 0); err != nil {
		t.Fatal(err)
	}
	k.PublishTelemetry()
	if a := sh.idx["w-big"].addr; a != freed {
		t.Fatalf("set landed at %#x, want the freed block %#x", a, freed)
	}
	t.Logf("set into a freed block past its old record's lines: %d rfo fetches, %d RPCs", rfo.Value()-rfo0, rpcs()-rpcs1)
	if rfo.Value() != rfo0 || rpcs() != rpcs1 {
		t.Errorf("set made %d rfo fetches and %d RPCs, want 0 and 0", rfo.Value()-rfo0, rpcs()-rpcs1)
	}
	for i := 0; i < 8; i++ {
		if i == 5 {
			continue
		}
		if got, _, _, ok, err = s.Get(0, key(i), got); err != nil || !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("get %s: ok=%t err=%v, value intact=%t", key(i), ok, err, bytes.Equal(got, value(i)))
		}
	}
	if got, _, _, ok, err = s.Get(0, "w-big", got); err != nil || !ok || !bytes.Equal(got, big) {
		t.Fatalf("get w-big: ok=%t err=%v, value intact=%t", ok, err, bytes.Equal(got, big))
	}
	if err := k.Close(0); err != nil {
		t.Fatal(err)
	}
}
