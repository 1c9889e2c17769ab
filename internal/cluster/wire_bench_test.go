package cluster

import (
	"bytes"
	"net"
	"testing"

	"kona/internal/cllog"
	"kona/internal/telemetry"
)

// The bench-wire guard (Makefile): bytes-copied-per-op and allocs/op on
// the scatter-gather wire path. "Copied" means payload bytes staged
// through an intermediate buffer between the wire and their true
// destination, read from the cluster.*.payload_copies telemetry on both
// ends. The gob-era wire path staged every WriteLog payload three times
// (client encode copy, server decode copy, server copy into the log
// region); the writev path sends it with none, and the receiver copies
// it at most once — through the connection buffer its frame arrived in,
// the price of one read per frame (DESIGN.md §11). The guard test fails
// the build if a second copy creeps in.

// wireRig is a memnode daemon and client with telemetry on both ends.
func wireRig(tb testing.TB) (*MemoryNodeClient, *telemetry.Registry, *telemetry.Registry) {
	tb.Helper()
	clientReg := telemetry.New(16)
	serverReg := telemetry.New(16)
	node := NewMemoryNode(1, 16<<20)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := ServeMemoryNodeOnWith(node, inner, serverReg)
	tb.Cleanup(func() { srv.Close() })
	mc := DialMemoryNodeTransport(srv.Addr(), Transport{Metrics: clientReg})
	tb.Cleanup(func() { mc.Close() })
	return mc, clientReg, serverReg
}

// packedEvictLog builds a 64-entry packed cache-line log (~the shape one
// eviction drain ships).
func packedEvictLog(tb testing.TB) []byte {
	tb.Helper()
	entries := make([]cllog.Entry, 64)
	for i := range entries {
		entries[i] = cllog.Entry{RemoteOff: uint64(i) * 64, Data: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	packed := make([]byte, cllog.PackedSize(entries))
	if _, err := cllog.Pack(entries, packed); err != nil {
		tb.Fatal(err)
	}
	return packed
}

// totalStagedBytes sums both ends' payload-copy counters.
func totalStagedBytes(clientReg, serverReg *telemetry.Registry) uint64 {
	return clientReg.Counter("cluster.rpc.payload_copies").Value() +
		serverReg.Counter("cluster.memnode.payload_copies").Value()
}

// TestWireEvictPathZeroCopies is the guard `make bench-wire` runs: the
// evict ship (WriteLog) leaves the client with ZERO staged bytes and the
// fetch fill (ReadInto / ReadPagesInto) arrives with exactly one copy —
// out of the connection buffer into the caller's frames; the server
// adds its Read staging and nothing else. The gob baseline staged every
// WriteLog payload 3x.
func TestWireEvictPathZeroCopies(t *testing.T) {
	mc, clientReg, serverReg := wireRig(t)
	packed := packedEvictLog(t)

	const ships = 32
	for i := 0; i < ships; i++ {
		half := len(packed) / 2
		if n, err := mc.WriteLogVec(packed[:half], packed[half:]); err != nil || n != 64 {
			t.Fatalf("ship %d: entries=%d err=%v", i, n, err)
		}
	}
	if got := clientReg.Counter("cluster.rpc.payload_copies").Value(); got != 0 {
		t.Fatalf("client staged %d payload bytes shipping logs (gob baseline: %d)", got, 2*ships*len(packed))
	}
	if moved := serverReg.Counter("cluster.memnode.log_bytes").Value(); moved != uint64(ships*len(packed)) {
		t.Fatalf("log path moved %d bytes, want %d — guard measured nothing", moved, ships*len(packed))
	}
	// What arrived with a log's frame header takes one copy out of the
	// connection buffer; the rest is read straight into the log region.
	logCopies := serverReg.Counter("cluster.memnode.payload_copies").Value()
	if logCopies > ships*connBufLen {
		t.Fatalf("server copied %d log payload bytes, want at most %d (the buffered heads)",
			logCopies, ships*connBufLen)
	}

	frame := make([]byte, 4096)
	frames := [][]byte{make([]byte, 512), make([]byte, 512)}
	for i := 0; i < ships; i++ {
		if err := mc.ReadInto(0, frame); err != nil {
			t.Fatal(err)
		}
		if err := mc.ReadPagesInto([]uint64{0, 4096}, frames); err != nil {
			t.Fatal(err)
		}
	}
	fetched := uint64(ships * (4096 + 2*512))
	if got := clientReg.Counter("cluster.rpc.payload_copies").Value(); got != fetched {
		t.Fatalf("client copied %d reply payload bytes, want %d (once, buffer to frame)", got, fetched)
	}
	// The server Read path stages replies through its pooled buffer (the
	// pool is only reachable under its lock).
	if got := serverReg.Counter("cluster.memnode.payload_copies").Value(); got != logCopies+fetched {
		t.Fatalf("server staged %d payload bytes, want %d (log heads + read staging only)",
			got, logCopies+fetched)
	}
}

// BenchmarkWireWriteLogVec measures the evict ship: allocs/op via
// -benchmem, staged payload bytes per op via the copiedB/op metric (at
// most the connection buffer: the head that arrived with the header).
func BenchmarkWireWriteLogVec(b *testing.B) {
	mc, clientReg, serverReg := wireRig(b)
	packed := packedEvictLog(b)
	half := len(packed) / 2
	if _, err := mc.WriteLogVec(packed[:half], packed[half:]); err != nil {
		b.Fatal(err)
	}
	base := totalStagedBytes(clientReg, serverReg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.WriteLogVec(packed[:half], packed[half:]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(totalStagedBytes(clientReg, serverReg)-base)/float64(b.N), "copiedB/op")
	b.ReportMetric(float64(len(packed)), "payloadB/op")
}

// BenchmarkWireReadInto measures the fetch fill into a caller frame:
// copiedB/op is the server's read staging plus the client's one copy out
// of its connection buffer.
func BenchmarkWireReadInto(b *testing.B) {
	mc, clientReg, serverReg := wireRig(b)
	frame := make([]byte, 4096)
	if err := mc.ReadInto(0, frame); err != nil {
		b.Fatal(err)
	}
	base := totalStagedBytes(clientReg, serverReg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.ReadInto(0, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(totalStagedBytes(clientReg, serverReg)-base)/float64(b.N), "copiedB/op")
}
