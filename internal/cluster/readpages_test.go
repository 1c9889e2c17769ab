package cluster

import (
	"bytes"
	"testing"

	"kona/internal/mem"
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
