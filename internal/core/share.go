package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"kona/internal/cluster"
	"kona/internal/mem"
	"kona/internal/simclock"
)

// Cross-runtime shared memory (DESIGN.md §14). A placement group can be
// shared between runtimes under the controller's ownership directory:
// exactly one writer lease or N reader leases exist per group at a time.
// The writer maps the region normally (its allocator owns the space) and
// calls ShareWriter; readers AttachReader the group, which registers the
// writer's slabs for translation at the same virtual addresses without
// joining the free list. Writes to a reader-mode region attempt a
// writer-lease upgrade and fail on conflict; invalidation is pull-based —
// the writer's Sync bumps the group's publish version, and a reader's
// PollInvalidations (or a lease-deadline check on the access path)
// observes the new version and drops its cached pages, so the next fetch
// reads the writer's flushed bytes.

// runtimeIDs hands out process-unique runtime identities. The counter is
// seeded from the wall clock so two processes sharing a rack draw from
// disjoint id ranges without coordination; ids only need to be unique
// among concurrent lease holders, not dense.
var runtimeIDs atomic.Uint64

func init() { runtimeIDs.Store(uint64(time.Now().UnixNano())) }

func nextRuntimeID() uint64 { return runtimeIDs.Add(1) }

// readerShare is one attached reader-mode group.
type readerShare struct {
	slab Slab // primary member: base VA + size of the shared range
	// version is the last observed publish version; an advance means the
	// writer flushed and the cached pages must drop.
	version uint64
	// deadline is when the lease should be renewed (half the granted TTL,
	// so a healthy reader never lets the lease lapse).
	deadline time.Time
	// err is the last renew failure, surfaced by PollInvalidations.
	err error
}

// RuntimeID returns this runtime's lease/fence identity.
func (k *Kona) RuntimeID() uint64 { return k.runtimeID }

// ShareWriter acquires the writer lease for the placement group holding
// addr and returns the group id (which another runtime passes to
// AttachReader). Sync then publishes a new version of the group after
// every flush. Idempotent while the lease is held; fails with a
// lease-conflict error while another runtime holds the group.
func (k *Kona) ShareWriter(addr mem.Addr) (uint64, error) {
	s, ok := k.rm.groupFor(addr)
	if !ok {
		return 0, fmt.Errorf("core: address %v not in any slab", addr)
	}
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	if _, held := k.writerGroups[s.ID]; held {
		return s.ID, nil
	}
	if _, err := k.rm.ctrl.AcquireLease(s.ID, k.runtimeID, cluster.LeaseWriter, 0); err != nil {
		return 0, err
	}
	k.writerGroups[s.ID] = struct{}{}
	// Another runtime may write the group from here on.
	k.rm.markShared(s.ID)
	return s.ID, nil
}

// ReleaseWriter gives up the writer lease on a shared group, clearing
// the memnode fences so a successor can take over without waiting out
// the TTL. Handing the group over is an ownership change, so the
// ex-writer first writes back (Sync, while its lease still covers the
// ship) and then drops the group's cached pages: a clean copy kept past
// the release goes stale at the successor's first flush, and nothing
// would ever invalidate it. On a write-back error the lease stays held.
func (k *Kona) ReleaseWriter(now simclock.Duration, group uint64) (simclock.Duration, error) {
	k.shareMu.Lock()
	_, held := k.writerGroups[group]
	k.shareMu.Unlock()
	if !held {
		return now, fmt.Errorf("core: writer lease for group %d not held", group)
	}
	// Sync publishes under shareMu, so it runs with the lock dropped.
	now, err := k.Sync(now)
	if err != nil {
		return now, err
	}
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	delete(k.writerGroups, group)
	k.dropGroup(group)
	return now, k.rm.ctrl.ReleaseLease(group, k.runtimeID)
}

// dropGroup invalidates every cached page of a mapped placement group.
func (k *Kona) dropGroup(group uint64) {
	if s, ok := k.rm.groupSlab(group); ok {
		k.fpga.DropRange(s.Base, s.Size)
	}
}

// dropWriterGroups invalidates the cached pages of every writer-leased
// group. Sync calls it when a ship comes back lease-fenced: a successor
// took a group over, and the zombie must not go on serving its
// pre-takeover copy from FMem. The rejection does not say which group,
// so all of them refetch.
func (k *Kona) dropWriterGroups() {
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	for group := range k.writerGroups {
		k.dropGroup(group)
	}
}

// AttachReader maps another runtime's placement group into this runtime
// in reader mode and returns its base address and size. The region
// appears at the same virtual addresses the writer sees, so pointers
// stored inside it stay valid across runtimes. Reads fetch normally;
// writes attempt a writer-lease upgrade and fail on conflict.
func (k *Kona) AttachReader(group uint64) (mem.Addr, uint64, error) {
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	if rs, ok := k.readerGroups[group]; ok {
		return rs.slab.Base, rs.slab.Size, nil
	}
	g, err := k.rm.ctrl.AcquireLease(group, k.runtimeID, cluster.LeaseReader, 0)
	if err != nil {
		return 0, 0, err
	}
	members, err := k.rm.ctrl.SlabPlacements(group)
	if err != nil {
		_ = k.rm.ctrl.ReleaseLease(group, k.runtimeID)
		return 0, 0, err
	}
	primary, err := k.rm.attachGroup(members)
	if err != nil {
		_ = k.rm.ctrl.ReleaseLease(group, k.runtimeID)
		return 0, 0, err
	}
	k.readerGroups[group] = &readerShare{
		slab:     primary,
		version:  g.Version,
		deadline: time.Now().Add(g.TTL / 2),
	}
	k.readerCount.Add(1)
	return primary.Base, primary.Size, nil
}

// DetachReader unmaps a reader-mode group: cached pages drop, the
// translation entries go away, and the reader lease is released.
func (k *Kona) DetachReader(group uint64) error {
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	rs, ok := k.readerGroups[group]
	if !ok {
		return fmt.Errorf("core: group %d not attached", group)
	}
	k.fpga.DropRange(rs.slab.Base, rs.slab.Size)
	k.rm.detachGroup(group)
	delete(k.readerGroups, group)
	k.readerCount.Add(-1)
	return k.rm.ctrl.ReleaseLease(group, k.runtimeID)
}

// PollInvalidations renews every reader lease and applies pending
// invalidations: a group whose publish version advanced has its cached
// pages dropped (shootdown), so the next access refetches the writer's
// flushed bytes. Returns how many groups were invalidated. Readers call
// it on their poll cadence; the access path also renews inline when a
// lease deadline lapses (checkReaderLease).
func (k *Kona) PollInvalidations() (int, error) {
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	invalidated := 0
	var firstErr error
	for group, rs := range k.readerGroups {
		if k.renewReaderLocked(group, rs) {
			invalidated++
		} else if rs.err != nil && firstErr == nil {
			firstErr = rs.err
		}
	}
	return invalidated, firstErr
}

// renewReaderLocked renews one reader lease and applies its
// invalidation, reporting whether pages were dropped. Caller holds
// shareMu (DropRange takes fpga shard locks; no shard lock may be held).
func (k *Kona) renewReaderLocked(group uint64, rs *readerShare) bool {
	g, err := k.rm.ctrl.RenewLease(group, k.runtimeID, cluster.LeaseReader, 0)
	rs.err = err
	if err != nil {
		return false
	}
	rs.deadline = time.Now().Add(g.TTL / 2)
	if g.Version == rs.version {
		return false
	}
	rs.version = g.Version
	k.fpga.DropRange(rs.slab.Base, rs.slab.Size)
	return true
}

// checkReaderLease runs on the Read path before FMem is consulted: when
// addr falls in a reader-mode group whose renew deadline lapsed, the
// lease is renewed inline (applying any missed invalidation) so a
// dormant reader cannot serve cached bytes under an expired lease.
// Cost off the sharing path is one atomic load.
func (k *Kona) checkReaderLease(addr mem.Addr) {
	if k.readerCount.Load() == 0 {
		return
	}
	k.shareMu.Lock()
	for group, rs := range k.readerGroups {
		if rs.slab.Range().Contains(addr) {
			if time.Now().After(rs.deadline) {
				k.renewReaderLocked(group, rs)
			}
			break
		}
	}
	k.shareMu.Unlock()
}

// upgradeIfReader gates the Write path: a store into a reader-mode
// group attempts a writer-lease upgrade. On success the group becomes
// writer-owned by this runtime and its cached pages drop (a
// read-modify-write must start from the current published bytes); on
// conflict the write fails with the lease-conflict error.
func (k *Kona) upgradeIfReader(addr mem.Addr) error {
	s, ok := k.rm.attachedGroupFor(addr)
	if !ok {
		return nil
	}
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	if _, held := k.writerGroups[s.ID]; held {
		return nil
	}
	if _, err := k.rm.ctrl.AcquireLease(s.ID, k.runtimeID, cluster.LeaseWriter, 0); err != nil {
		return fmt.Errorf("core: write to reader-mode region %v: %w", addr, err)
	}
	if _, wasReader := k.readerGroups[s.ID]; wasReader {
		delete(k.readerGroups, s.ID)
		k.readerCount.Add(-1)
	}
	k.writerGroups[s.ID] = struct{}{}
	k.fpga.DropRange(s.Base, s.Size)
	return nil
}

// publishShared bumps the publish version on every writer-leased group
// (and extends the writer lease); Sync calls it after a successful
// flush so readers' next renew observes the new version.
func (k *Kona) publishShared() error {
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	var firstErr error
	for group := range k.writerGroups {
		if _, err := k.rm.ctrl.PublishLease(group, k.runtimeID); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// releaseShares drops every lease this runtime holds (Close path).
func (k *Kona) releaseShares() {
	k.shareMu.Lock()
	defer k.shareMu.Unlock()
	for group := range k.writerGroups {
		_ = k.rm.ctrl.ReleaseLease(group, k.runtimeID)
		delete(k.writerGroups, group)
	}
	for group, rs := range k.readerGroups {
		k.fpga.DropRange(rs.slab.Base, rs.slab.Size)
		k.rm.detachGroup(group)
		_ = k.rm.ctrl.ReleaseLease(group, k.runtimeID)
		delete(k.readerGroups, group)
		k.readerCount.Add(-1)
	}
}
