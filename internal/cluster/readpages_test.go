package cluster

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"net"
	"slices"
	"testing"

	"kona/internal/mem"
	"kona/internal/telemetry"
)

// readPagesRig serves one memory-node daemon and returns a client for it
// plus the node (for direct pool access).
func readPagesRig(t testing.TB) (*MemoryNodeClient, *MemoryNode) {
	t.Helper()
	node := NewMemoryNode(0, 8<<20)
	ns, err := ServeMemoryNode(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	c := DialMemoryNode(ns.Addr())
	t.Cleanup(func() { c.Close() })
	return c, node
}

// TestReadPagesRPC pins the scatter-gather wire format: the reply holds
// the requested spans concatenated in request order.
func TestReadPagesRPC(t *testing.T) {
	c, node := readPagesRig(t)
	pool := node.PoolBytes()
	offs := []uint64{3 * mem.PageSize, 0, 17 * mem.PageSize}
	for i, off := range offs {
		copy(pool[off:], bytes.Repeat([]byte{byte(i + 1)}, int(mem.PageSize)))
	}
	pages, err := readPagesFrom(c, offs, int(mem.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != len(offs) {
		t.Fatalf("got %d pages, want %d", len(pages), len(offs))
	}
	for i := range offs {
		if !bytes.Equal(pages[i], bytes.Repeat([]byte{byte(i + 1)}, int(mem.PageSize))) {
			t.Fatalf("page %d out of order or corrupted", i)
		}
	}
}

// TestReadPagesMatchesSingleReads cross-checks the batched path against
// the one-page Read RPC over random offsets.
func TestReadPagesMatchesSingleReads(t *testing.T) {
	c, node := readPagesRig(t)
	pool := node.PoolBytes()
	for i := range pool {
		pool[i] = byte(i * 31)
	}
	offs := []uint64{5 * mem.PageSize, 1 * mem.PageSize, 9 * mem.PageSize, 5 * mem.PageSize}
	pages, err := readPagesFrom(c, offs, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range offs {
		single, err := readFrom(c, off, 512)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pages[i], single) {
			t.Fatalf("batch span %d (offset %d) differs from single read", i, off)
		}
	}
}

// TestReadPagesErrors pins the rejection cases: empty batch, span out of
// range, and a batch larger than the frame budget.
func TestReadPagesErrors(t *testing.T) {
	c, _ := readPagesRig(t)
	if _, err := readPagesFrom(c, nil, int(mem.PageSize)); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := readPagesFrom(c, []uint64{1 << 40}, int(mem.PageSize)); err == nil {
		t.Error("out-of-range offset accepted")
	}
	huge := make([]uint64, (maxFrameSize/2)/int(mem.PageSize)+2)
	if _, err := readPagesFrom(c, huge, int(mem.PageSize)); err == nil {
		t.Error("over-budget batch accepted")
	}
	// Errors must not poison the connection for the next request.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after rejected batch: %v", err)
	}
}

// TestReadKindsRetrySafely drives the two kinds a fill reads with — a
// `read` of one run and a `read-pages` gather of several, of equal spans
// or of single lines — through a memnode whose listener drops
// connections. Both kinds are retried by the transport, so every reply
// that comes back must equal the pool byte for byte (a retry must never
// leave a torn or shifted reply behind), some replies must have needed a
// retry, and the pool must be unchanged afterwards: a read is never
// replayed as a write.
func TestReadKindsRetrySafely(t *testing.T) {
	reg := telemetry.New(0)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{Seed: 19, DropProb: 0.1, Metrics: reg})
	node := NewMemoryNode(0, 1<<20)
	pool := node.PoolBytes()
	for i := range pool {
		pool[i] = byte(i*131 + i>>9)
	}
	want := bytes.Clone(pool)
	ns := ServeMemoryNodeOn(node, fl)
	defer ns.Close()
	tr := chaosTransport(19)
	tr.Metrics = reg
	mc := DialMemoryNodeTransport(ns.Addr(), tr)
	defer mc.Close()

	const line = mem.CacheLineSize
	for i := 0; i < 150; i++ {
		page := uint64(i%200) * mem.PageSize
		run := make([]byte, (1+i%9)*line)
		off := page + uint64(i%7)*line
		if err := mc.ReadInto(off, run); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(run, want[off:off+uint64(len(run))]) {
			t.Fatalf("read %d at %d: reply differs from the pool", i, off)
		}
		// Four equal runs of 9 lines, one per 1 KB block; then single lines.
		span := 9 * line
		offs := []uint64{page, page + 1024, page + 2048, page + 3072}
		if i%2 == 1 {
			span = line
			offs = []uint64{page + 5*line, page + 6*line, page + 20*line, page + 63*line}
		}
		bufs := make([][]byte, len(offs))
		for j := range bufs {
			bufs[j] = make([]byte, span)
		}
		if err := mc.ReadPagesInto(offs, bufs); err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		for j, o := range offs {
			if !bytes.Equal(bufs[j], want[o:o+uint64(span)]) {
				t.Fatalf("gather %d span %d at %d: reply differs from the pool", i, j, o)
			}
		}
	}
	s := reg.Snapshot()
	if s.Counters["faultconn.drops"] == 0 || s.Counters["cluster.rpc.retries"] == 0 {
		t.Fatalf("drops %d, retries %d: the faults never reached a read, the test proves nothing",
			s.Counters["faultconn.drops"], s.Counters["cluster.rpc.retries"])
	}
	if !bytes.Equal(node.PoolBytes(), want) {
		t.Fatal("reads under retry changed the pool")
	}
	t.Logf("%d drops, %d retries, %d redials", s.Counters["faultconn.drops"],
		s.Counters["cluster.rpc.retries"], s.Counters["cluster.rpc.redials"])
}

// TestMutatingKindsRetrySafely is the next slice of retry safety: `write`
// (a pure overwrite), `seal-extent`, `unseal-extent`, `lease-fence` (arm
// and clear) and `release-extent` (level-triggered) through the same
// dropping FaultListener as TestReadKindsRetrySafely. A seeded stream of
// them goes to the faulted memnode over the wire and, delivered once each,
// to a reference node in process. Some requests must have needed a retry;
// every outcome (a write refused by a seal or a fence, or accepted) must
// match the clean delivery's, and so must the final pool bytes, seal set
// and fence set.
func TestMutatingKindsRetrySafely(t *testing.T) {
	reg := telemetry.New(0)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultListener(inner, FaultConfig{Seed: 23, DropProb: 0.1, Metrics: reg})
	node, ref := NewMemoryNode(0, 1<<20), NewMemoryNode(1, 1<<20)
	ns := ServeMemoryNodeOn(node, fl)
	defer ns.Close()
	tr := chaosTransport(23)
	tr.Metrics = reg
	mc := DialMemoryNodeTransport(ns.Addr(), tr)
	defer mc.Close()

	const extent = 8 * mem.PageSize // eight guardable extents over the first 64 pages
	rng := rand.New(rand.NewSource(23))
	sealed, fenced, writes := 0, 0, 0
	for i := 0; i < 400; i++ {
		ext := uint64(rng.Intn(8)) * extent
		// Runtimes 1 and 2 write and hold fences.
		runtime := uint64(1 + rng.Intn(2))
		var got, want error
		switch op := rng.Intn(8); op {
		case 0:
			got = mc.Seal(ext, extent)
			ref.Seal(ext, extent)
		case 1:
			got = mc.Unseal(ext, extent)
			ref.Unseal(ext, extent)
		case 2, 3:
			if op == 3 {
				runtime = 0 // clears the fence
			}
			got = mc.LeaseFence(ext, extent, runtime)
			ref.LeaseFence(ext, extent, runtime)
		case 4:
			got = mc.ReleaseExtent(ext, extent)
			ref.ReleaseExtent(ext, extent)
		default:
			off := ext + uint64(rng.Intn(int(extent)-512))
			data := bytes.Repeat([]byte{byte(i + 1)}, 1+rng.Intn(512))
			mc.SetRuntime(runtime)
			got, want = mc.WriteVec(off, data[:len(data)/2], data[len(data)/2:]), ref.WriteAtFrom(runtime, off, data)
			writes++
		}
		for _, typed := range []error{ErrSealed, ErrLeaseFenced} {
			if errors.Is(got, typed) != errors.Is(want, typed) {
				t.Fatalf("op %d: faulted delivery returned %v, clean delivery %v", i, got, want)
			}
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("op %d: faulted delivery returned %v, clean delivery %v", i, got, want)
		}
		if errors.Is(want, ErrSealed) {
			sealed++
		}
		if errors.Is(want, ErrLeaseFenced) {
			fenced++
		}
	}
	s := reg.Snapshot()
	if s.Counters["faultconn.drops"] == 0 || s.Counters["cluster.rpc.retries"] == 0 {
		t.Fatalf("drops %d, retries %d: the faults never reached a request, the test proves nothing",
			s.Counters["faultconn.drops"], s.Counters["cluster.rpc.retries"])
	}
	if sealed == 0 || fenced == 0 || sealed+fenced == writes {
		t.Fatalf("%d sealed and %d fenced of %d writes: the stream never mixed every outcome", sealed, fenced, writes)
	}
	if !bytes.Equal(node.PoolBytes(), ref.PoolBytes()) {
		t.Fatal("pool after retried delivery differs from one clean delivery")
	}
	seals := func(n *MemoryNode) []sealRange {
		n.mu.Lock()
		defer n.mu.Unlock()
		out := slices.Clone(n.seals)
		slices.SortFunc(out, func(a, b sealRange) int { return cmp.Compare(a.off, b.off) })
		return out
	}
	if got, want := seals(node), seals(ref); !slices.Equal(got, want) {
		t.Fatalf("seal set after retried delivery %v, after one clean delivery %v", got, want)
	}
	fences := func(n *MemoryNode) []leaseFence {
		n.mu.Lock()
		defer n.mu.Unlock()
		out := slices.Clone(n.fences)
		slices.SortFunc(out, func(a, b leaseFence) int { return cmp.Compare(a.off, b.off) })
		return out
	}
	if got, want := fences(node), fences(ref); !slices.Equal(got, want) {
		t.Fatalf("fence set after retried delivery %v, after one clean delivery %v", got, want)
	}
	t.Logf("%d drops, %d retries; of %d writes, %d refused by a seal and %d by a fence", s.Counters["faultconn.drops"],
		s.Counters["cluster.rpc.retries"], writes, sealed, fenced)
}

// TestGatherIsOneReadOp pins MemoryNode.ReadSpans, the memnode side of a
// `read-pages` gather: a 36-span gather of single lines, in process or
// over the wire, adds exactly one read op and its bytes to the load map
// and returns the pool's bytes. A gather with one overrunning span (past
// the pool's end, or an offset that would wrap past 2^64) fails whole:
// nothing copied, nothing counted; a `read` at such an offset fails too,
// where the wrap once panicked the memnode.
func TestGatherIsOneReadOp(t *testing.T) {
	c, node := readPagesRig(t)
	pool := node.PoolBytes()
	for i := range pool {
		pool[i] = byte(i*7 + i>>12)
	}
	const line = mem.CacheLineSize
	offs := make([]uint64, 36)
	for i := range offs {
		offs[i] = uint64(i%3)*mem.PageSize + uint64(i)*line
	}
	before := node.LoadCounters()
	dst := make([]byte, len(offs)*line)
	if err := node.ReadSpans(offs, line, dst); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, len(offs))
	for i := range bufs {
		bufs[i] = make([]byte, line)
	}
	if err := c.ReadPagesInto(offs, bufs); err != nil {
		t.Fatal(err)
	}
	after := node.LoadCounters()
	if ops, n := after.ReadOps-before.ReadOps, after.ReadBytes-before.ReadBytes; ops != 2 || n != 2*36*line {
		t.Fatalf("two 36-span gathers counted %d read ops / %d bytes, want 2 / %d", ops, n, 2*36*line)
	}
	for i, off := range offs {
		want := pool[off : off+line]
		if !bytes.Equal(dst[i*line:(i+1)*line], want) || !bytes.Equal(bufs[i], want) {
			t.Fatalf("span %d at %d differs from the pool", i, off)
		}
	}

	for _, bad := range []uint64{uint64(len(pool)) - line/2, ^uint64(0) - 10} {
		offs := append(slices.Clone(offs[:35]), bad)
		before := node.LoadCounters()
		dst := bytes.Repeat([]byte{0xEE}, len(offs)*line)
		if err := node.ReadSpans(offs, line, dst); err == nil {
			t.Fatalf("gather with a span at %d succeeded", bad)
		}
		if err := c.ReadPagesInto(offs, bufs); err == nil {
			t.Fatalf("gather over the wire with a span at %d succeeded", bad)
		}
		if err := node.ReadAt(bad, dst[:line]); err == nil {
			t.Fatalf("read at %d succeeded", bad)
		}
		if err := c.ReadInto(bad, bufs[0]); err == nil {
			t.Fatalf("read over the wire at %d succeeded", bad)
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, len(dst))) {
			t.Fatalf("failed gather with a span at %d copied into dst", bad)
		}
		if after := node.LoadCounters(); after != before {
			t.Fatalf("failed gather with a span at %d counted: %+v -> %+v", bad, before, after)
		}
	}
}

// TestLocalCopyGatherIsOneReadOp is TestGatherIsOneReadOp for the
// in-process replacement copy (Controller.Dial): a 16-page batch into separate
// page buffers is one lock hold and one read op, and copies the pool's
// bytes; a batch with one overrunning page fails whole, copies nothing and
// counts nothing.
func TestLocalCopyGatherIsOneReadOp(t *testing.T) {
	c := NewController()
	node := NewMemoryNode(0, 1<<20)
	if err := c.Register(node); err != nil {
		t.Fatal(err)
	}
	pool := node.PoolBytes()
	for i := range pool {
		pool[i] = byte(i*5 + i>>12)
	}
	src, err := c.Dial(0, node.Incarnation())
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]uint64, 16)
	bufs := make([][]byte, len(offs))
	for i := range offs {
		offs[i] = uint64(i*i%97) * mem.PageSize
		bufs[i] = make([]byte, mem.PageSize)
	}
	before := node.LoadCounters()
	if err := src.ReadPagesInto(offs, bufs); err != nil {
		t.Fatal(err)
	}
	after := node.LoadCounters()
	if ops, n := after.ReadOps-before.ReadOps, after.ReadBytes-before.ReadBytes; ops != 1 || n != 16*mem.PageSize {
		t.Fatalf("a 16-page copy batch counted %d read ops / %d bytes, want 1 / %d", ops, n, 16*mem.PageSize)
	}
	for i, off := range offs {
		if !bytes.Equal(bufs[i], pool[off:off+mem.PageSize]) {
			t.Fatalf("page %d at %d differs from the pool", i, off)
		}
	}

	offs[9] = uint64(len(pool)) - mem.PageSize/2
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{0xEE}, int(mem.PageSize))
	}
	before = node.LoadCounters()
	if err := src.ReadPagesInto(offs, bufs); err == nil {
		t.Fatal("a copy batch with an overrunning page succeeded")
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], bytes.Repeat([]byte{0xEE}, int(mem.PageSize))) {
			t.Fatalf("failed copy batch wrote page %d", i)
		}
	}
	if after := node.LoadCounters(); after != before {
		t.Fatalf("failed copy batch counted: %+v -> %+v", before, after)
	}
}

// BenchmarkReadPagesVsSingle quantifies the round-trip coalescing: 8
// pages as 8 Read RPCs vs one ReadPages frame.
func BenchmarkReadPagesVsSingle(b *testing.B) {
	const n = 8
	offs := make([]uint64, n)
	for i := range offs {
		offs[i] = uint64(i) * mem.PageSize
	}
	b.Run("single-x8", func(b *testing.B) {
		c, _ := readPagesRig(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, off := range offs {
				if _, err := readFrom(c, off, int(mem.PageSize)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-x8", func(b *testing.B) {
		c, _ := readPagesRig(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := readPagesFrom(c, offs, int(mem.PageSize)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGatherVsPageRead is the fill's choice on a page of four 536 B
// records: one `read` of the whole 4 KB page, or one `read-pages` gather
// of the records' 4 × 576 B — and, for a page whose written runs differ in
// length, a gather of one 64 B span per line (36 spans).
func BenchmarkGatherVsPageRead(b *testing.B) {
	c, _ := readPagesRig(b)
	page := make([]byte, mem.PageSize)
	gather := func(span int, offs []uint64) func(b *testing.B) {
		bufs := make([][]byte, len(offs))
		for i := range bufs {
			bufs[i] = page[offs[i] : offs[i]+uint64(span)]
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.ReadPagesInto(offs, bufs); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("read-4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := c.ReadInto(0, page); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gather-4x576", gather(576, []uint64{0, 1024, 2048, 3072}))
	var lines []uint64
	for blk := uint64(0); blk < 4; blk++ {
		for l := uint64(0); l < 9; l++ {
			lines = append(lines, blk*1024+l*64)
		}
	}
	b.Run("gather-36x64", gather(64, lines))
}
