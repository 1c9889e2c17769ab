package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"kona/internal/cluster"
	"kona/internal/mem"
)

// Cross-runtime sharing over the sim rack (DESIGN.md §14): two Kona
// runtimes on one controller share a placement group under the lease
// directory — same virtual addresses, writer-publishes/reader-polls
// invalidation, lease-upgrade on reader writes, and fencing of a
// zombie writer's log ship.

// mustWrite/mustRead keep the version-step plumbing out of assertions.
func mustWrite(t *testing.T, k *Kona, now simDurT, addr mem.Addr, data []byte) simDurT {
	t.Helper()
	now, err := k.Write(now, addr, data)
	if err != nil {
		t.Fatalf("write at %v: %v", addr, err)
	}
	return now
}

func mustRead(t *testing.T, k *Kona, now simDurT, addr mem.Addr, n int) (simDurT, []byte) {
	t.Helper()
	buf := make([]byte, n)
	now, err := k.Read(now, addr, buf)
	if err != nil {
		t.Fatalf("read at %v: %v", addr, err)
	}
	return now, buf
}

func TestSharedRegionWriterPublishesReaderObserves(t *testing.T) {
	ctrl := newCluster(1)
	w := NewKona(smallConfig(), ctrl)
	r := NewKona(smallConfig(), ctrl)
	var wnow, rnow simDurT
	defer w.Close(wnow)
	defer r.Close(rnow)

	if w.RuntimeID() == r.RuntimeID() {
		t.Fatal("two runtimes drew the same runtime id")
	}

	addr, err := w.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	verA := bytes.Repeat([]byte{0xA1}, 64)
	wnow = mustWrite(t, w, wnow, addr, verA)
	group, err := w.ShareWriter(addr)
	if err != nil {
		t.Fatalf("ShareWriter: %v", err)
	}
	if wnow, err = w.Sync(wnow); err != nil {
		t.Fatalf("writer sync: %v", err)
	}

	// The reader maps the group at the writer's addresses: addr itself
	// must fall inside the attached range, and the flushed bytes show.
	base, size, err := r.AttachReader(group)
	if err != nil {
		t.Fatalf("AttachReader: %v", err)
	}
	if addr < base || addr >= base+mem.Addr(size) {
		t.Fatalf("shared addr %v outside attached range [%v,%v)", addr, base, base+mem.Addr(size))
	}
	var got []byte
	rnow, got = mustRead(t, r, rnow, addr, len(verA))
	if !bytes.Equal(got, verA) {
		t.Fatalf("reader saw %x, want published %x", got[:4], verA[:4])
	}

	// A second flush is invisible until the reader polls (pull-based
	// invalidation), then the shootdown makes the new bytes appear.
	verB := bytes.Repeat([]byte{0xB2}, 64)
	wnow = mustWrite(t, w, wnow, addr, verB)
	if wnow, err = w.Sync(wnow); err != nil {
		t.Fatalf("writer sync: %v", err)
	}
	rnow, got = mustRead(t, r, rnow, addr, len(verB))
	if !bytes.Equal(got, verA) {
		t.Fatalf("reader saw %x before invalidation, want cached %x", got[:4], verA[:4])
	}
	dropped, err := r.PollInvalidations()
	if err != nil {
		t.Fatalf("PollInvalidations: %v", err)
	}
	if dropped != 1 {
		t.Fatalf("PollInvalidations dropped %d groups, want 1", dropped)
	}
	rnow, got = mustRead(t, r, rnow, addr, len(verB))
	if !bytes.Equal(got, verB) {
		t.Fatalf("reader saw %x after invalidation, want %x", got[:4], verB[:4])
	}

	// Reader-mode writes fault with a lease conflict while the writer
	// lease is live...
	if _, err := r.Write(rnow, addr, verA); !errors.Is(err, cluster.ErrLeaseConflict) {
		t.Fatalf("reader write: got %v, want lease conflict", err)
	}
	// ...and upgrade in place once it is released.
	if wnow, err = w.ReleaseWriter(wnow, group); err != nil {
		t.Fatal(err)
	}
	verC := bytes.Repeat([]byte{0xC3}, 64)
	rnow = mustWrite(t, r, rnow, addr, verC)
	if rnow, err = r.Sync(rnow); err != nil {
		t.Fatalf("upgraded reader sync: %v", err)
	}
	// The old writer now conflicts in turn.
	if _, err := w.ShareWriter(addr); !errors.Is(err, cluster.ErrLeaseConflict) {
		t.Fatalf("re-share after handover: got %v, want lease conflict", err)
	}
	if rnow, err = r.ReleaseWriter(rnow, group); err != nil {
		t.Fatal(err)
	}
}

func TestSharedReaderInlineRenewOnReadPath(t *testing.T) {
	ctrl := newCluster(1)
	// A tiny TTL forces the read-path deadline check (checkReaderLease)
	// to renew inline — no PollInvalidations call anywhere in this test.
	ctrl.SetLeaseTTL(50 * time.Millisecond)
	w := NewKona(smallConfig(), ctrl)
	r := NewKona(smallConfig(), ctrl)
	var wnow, rnow simDurT
	defer w.Close(wnow)
	defer r.Close(rnow)

	addr, err := w.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	verA := bytes.Repeat([]byte{0x11}, 64)
	wnow = mustWrite(t, w, wnow, addr, verA)
	group, err := w.ShareWriter(addr)
	if err != nil {
		t.Fatal(err)
	}
	if wnow, err = w.Sync(wnow); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AttachReader(group); err != nil {
		t.Fatal(err)
	}
	var got []byte
	rnow, got = mustRead(t, r, rnow, addr, len(verA))
	if !bytes.Equal(got, verA) {
		t.Fatalf("reader saw %x, want %x", got[:4], verA[:4])
	}

	verB := bytes.Repeat([]byte{0x22}, 64)
	wnow = mustWrite(t, w, wnow, addr, verB)
	if wnow, err = w.Sync(wnow); err != nil {
		t.Fatal(err)
	}
	// Let the renew deadline (TTL/2) lapse; the next Read must renew,
	// observe the published version, and drop the stale pages itself.
	time.Sleep(80 * time.Millisecond)
	rnow, got = mustRead(t, r, rnow, addr, len(verB))
	if !bytes.Equal(got, verB) {
		t.Fatalf("dormant reader saw %x after deadline, want %x", got[:4], verB[:4])
	}
	if err := r.DetachReader(group); err != nil {
		t.Fatal(err)
	}
	if err := r.DetachReader(group); err == nil {
		t.Fatal("double detach succeeded")
	}
}

func TestSharedZombieWriterFencedOnFlush(t *testing.T) {
	ctrl := newCluster(1)
	ctrl.SetLeaseTTL(time.Second)
	now := time.Unix(2000, 0)
	ctrl.SetLeaseClock(func() time.Time { return now })
	w := NewKona(smallConfig(), ctrl)
	r := NewKona(smallConfig(), ctrl)
	var wnow, rnow simDurT
	defer r.Close(rnow)

	addr, err := w.Malloc(2 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	page2 := addr + mem.PageSize
	wnow = mustWrite(t, w, wnow, addr, bytes.Repeat([]byte{0xAA}, 64))
	wnow = mustWrite(t, w, wnow, page2, bytes.Repeat([]byte{0xAA}, 64))
	group, err := w.ShareWriter(addr)
	if err != nil {
		t.Fatal(err)
	}
	if wnow, err = w.Sync(wnow); err != nil {
		t.Fatal(err)
	}
	// The writer keeps a clean copy of the second page in FMem.
	wnow, _ = mustRead(t, w, wnow, page2, 64)
	if _, _, err := r.AttachReader(group); err != nil {
		t.Fatal(err)
	}

	// The writer's lease lapses; the reader upgrades (takeover) and the
	// memnode fences flip to its runtime id.
	now = now.Add(2 * time.Second)
	verB := bytes.Repeat([]byte{0xBB}, 64)
	rnow = mustWrite(t, r, rnow, addr, verB)
	rnow = mustWrite(t, r, rnow, page2, verB)
	if rnow, err = r.Sync(rnow); err != nil {
		t.Fatalf("successor sync: %v", err)
	}

	// The zombie keeps writing locally — allowed — but its next log ship
	// is rejected at the memnode and the error surfaces out of Sync
	// instead of being retried forever.
	wnow = mustWrite(t, w, wnow, addr, bytes.Repeat([]byte{0xEE}, 64))
	if _, err = w.Sync(wnow); !errors.Is(err, cluster.ErrLeaseFenced) {
		t.Fatalf("zombie sync: got %v, want lease-fenced", err)
	}
	if fs := w.FailureStats(); fs.LeaseFencedShips == 0 {
		t.Fatal("fenced ship not counted in FailureStats")
	}
	// Being fenced is how the zombie learns the group changed hands: its
	// cached pre-takeover pages drop, so it reads the successor's bytes.
	if _, got := mustRead(t, w, wnow, page2, 64); !bytes.Equal(got, verB) {
		t.Fatalf("fenced zombie served %x from its pre-takeover copy, want %x", got[:4], verB[:4])
	}
}

// TestSharedReleaseWriterDropsCachedPages: Sync keeps clean pages, so a
// writer that hands its group over must itself invalidate what it cached
// — nothing later would. A writes, Syncs and reads (clean, resident) and
// releases; B upgrades, overwrites and Syncs; A then reads B's bytes.
// The release also writes back: a line A never Synced reaches B.
func TestSharedReleaseWriterDropsCachedPages(t *testing.T) {
	ctrl := newCluster(1)
	a := NewKona(smallConfig(), ctrl)
	b := NewKona(smallConfig(), ctrl)
	var anow, bnow simDurT
	defer a.Close(anow)
	defer b.Close(bnow)

	addr, err := a.Malloc(2 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	page2 := addr + mem.PageSize
	verA := bytes.Repeat([]byte{0xA1}, 64)
	anow = mustWrite(t, a, anow, addr, verA)
	group, err := a.ShareWriter(addr)
	if err != nil {
		t.Fatal(err)
	}
	if anow, err = a.Sync(anow); err != nil {
		t.Fatal(err)
	}
	anow, _ = mustRead(t, a, anow, addr, 64)
	if !a.fpga.Resident(addr) {
		t.Fatal("setup: A's page not resident after Sync + read")
	}
	if _, _, err := b.AttachReader(group); err != nil {
		t.Fatal(err)
	}

	unsynced := bytes.Repeat([]byte{0xA2}, 64)
	anow = mustWrite(t, a, anow, page2, unsynced)
	if anow, err = a.ReleaseWriter(anow, group); err != nil {
		t.Fatal(err)
	}
	if a.fpga.Resident(addr) || a.fpga.Resident(page2) {
		t.Error("ex-writer still caches the released group")
	}
	var got []byte
	if bnow, got = mustRead(t, b, bnow, page2, 64); !bytes.Equal(got, unsynced) {
		t.Fatalf("successor read %x, want the line written back at release %x", got[:4], unsynced[:4])
	}

	verB := bytes.Repeat([]byte{0xB2}, 64)
	bnow = mustWrite(t, b, bnow, addr, verB) // upgrades B to writer
	if bnow, err = b.Sync(bnow); err != nil {
		t.Fatal(err)
	}
	if _, got = mustRead(t, a, anow, addr, 64); !bytes.Equal(got, verB) {
		t.Fatalf("ex-writer read %x after handover, want the successor's %x", got[:4], verB[:4])
	}
	if bnow, err = b.ReleaseWriter(bnow, group); err != nil {
		t.Fatal(err)
	}
}
