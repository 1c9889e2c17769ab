package cluster

import (
	"fmt"
	"sync"
	"time"

	"kona/internal/slab"
)

// Lease directory (DESIGN.md §14): the controller-side ownership map that
// lets several compute runtimes share a placement group. Each group holds
// at most ONE writer lease and any number of reader leases at a time.
// Grants are TTL-bounded; expiry is lazy (checked against the injectable
// clock on every directory operation), and a writer takeover after expiry
// bumps the group's lease epoch and re-arms the memnode-side extent
// fences with the new holder's identity, so the zombie writer's next
// WriteLog batch is rejected all-or-nothing (node.go, ErrLeaseFenced).
//
// Invalidation is pull-based: the writer's publish (PublishLease, wire
// kind lease-invalidate) bumps the group's version, and readers observe
// the new version on their next renew — the renew response piggybacks the
// version, and the compute runtime drops its cached pages for the group
// when it advances. §14 spells out why this still never shows a reader
// pre-invalidation bytes for a published version.

// Lease modes, carried in Request.Length on the wire.
const (
	LeaseReader = 1
	LeaseWriter = 2
)

// DefaultLeaseTTL bounds how long a crashed writer can wedge a group
// before another runtime may take over.
const DefaultLeaseTTL = 2 * time.Second

// LeaseGrant is a successful lease operation's result.
type LeaseGrant struct {
	// Epoch is the group's lease epoch: bumped on every writer handover,
	// it tells a returning writer whether it is still the incumbent.
	Epoch uint64
	// Version is the group's publish counter. A reader whose cached
	// version is older must drop its cached pages before trusting them.
	Version uint64
	// TTL is the granted validity window, from the controller's clock at
	// grant time.
	TTL time.Duration
}

// leaseState is one group's directory entry. Guarded by Controller.leaseMu.
type leaseState struct {
	writer       uint64 // runtime holding the writer lease; 0 = none
	writerExpiry time.Time
	readers      map[uint64]time.Time // runtime → expiry
	epoch        uint64
	version      uint64
}

// LeaseStats is the directory's counter snapshot, published on /metrics.
type LeaseStats struct {
	Grants      uint64 // successful acquires + renews
	Rejects     uint64 // conflicting acquires / lost-lease renews
	Expirations uint64 // writer leases lazily expired
	Takeovers   uint64 // writer handovers after expiry (epoch bumps)
	Publishes   uint64 // writer version bumps (invalidations)
	FenceErrors uint64 // best-effort fence pushes that failed
	Writers     int    // groups with a live writer lease
	Readers     int    // live reader leases across all groups
}

// leaseDir is the directory state embedded in Controller. leaseMu is the
// OUTER lock: directory operations take leaseMu and then — for a
// membership snapshot or a member's node record — c.mu, briefly. Nothing
// takes leaseMu while holding c.mu, and fence pushes travel under leaseMu
// alone.
type leaseDir struct {
	leaseMu    sync.Mutex
	leases     map[uint64]*leaseState
	leaseTTL   time.Duration
	leaseNow   func() time.Time
	leaseStats LeaseStats
}

// SetLeaseTTL sets the default lease validity window (used when a request
// asks for TTL 0). Zero or negative restores DefaultLeaseTTL.
func (c *Controller) SetLeaseTTL(d time.Duration) {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	c.leaseTTL = d
}

// SetLeaseClock installs the directory's time source (injectable so tests
// can expire leases deterministically). nil restores time.Now.
func (c *Controller) SetLeaseClock(now func() time.Time) {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	c.leaseNow = now
}

func (c *Controller) leaseNowLocked() time.Time {
	if c.leaseNow != nil {
		return c.leaseNow()
	}
	return time.Now()
}

func (c *Controller) leaseTTLLocked(requested time.Duration) time.Duration {
	if requested > 0 {
		return requested
	}
	if c.leaseTTL > 0 {
		return c.leaseTTL
	}
	return DefaultLeaseTTL
}

// leaseMembers snapshots a group's current members (c.mu held briefly;
// leaseMu may be held by the caller — leaseMu→c.mu is the allowed order).
func (c *Controller) leaseMembers(group uint64) []slab.Slab {
	c.mu.Lock()
	defer c.mu.Unlock()
	members := c.groups[group]
	out := make([]slab.Slab, len(members))
	copy(out, members)
	return out
}

// fenceLocked arms (or, with holder 0, clears) the extent fence on member
// m through its node's handle, best-effort: a failed push is counted, not
// fatal. A member that is not live (liveLocked) is skipped — repair will
// refence its replacement. Caller holds leaseMu.
func (c *Controller) fenceLocked(m slab.Slab, holder uint64) {
	r, live := c.hostOf(m)
	if live && r.handle(m.Epoch).LeaseFence(m.RemoteOff, m.Size, holder) != nil {
		c.leaseStats.FenceErrors++
	}
}

// pushFencesLocked arms (or, with holder 0, clears) the extent fence on
// every member of group. A member whose fence push failed is either dead
// (repair refences the replacement) or will reject the next push-retry;
// meanwhile the directory itself still refuses the stale writer's renew.
// Caller holds leaseMu.
func (c *Controller) pushFencesLocked(group, holder uint64) {
	for _, m := range c.leaseMembers(group) {
		c.fenceLocked(m, holder)
	}
}

// expireLocked lazily retires expired leases in st. Caller holds leaseMu.
func (c *Controller) expireLocked(st *leaseState, now time.Time) {
	if st.writer != 0 && now.After(st.writerExpiry) {
		// The writer's lease lapsed. The slot opens, but the fences stay
		// armed with the old holder until a successor takes over: until
		// then the old writer is still the group's only writer, so
		// accepting its late flushes loses nothing (GFS-style grace).
		st.writer = 0
		c.leaseStats.Expirations++
	}
	for r, exp := range st.readers {
		if now.After(exp) {
			delete(st.readers, r)
		}
	}
}

// leaseStateLocked finds or creates group's directory entry, verifying
// the group exists. Caller holds leaseMu.
func (c *Controller) leaseStateLocked(group uint64) (*leaseState, error) {
	c.mu.Lock()
	_, ok := c.groups[group]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("controller: lease on unknown group %d", group)
	}
	st := c.leases[group]
	if st == nil {
		st = &leaseState{readers: make(map[uint64]time.Time)}
		c.leases[group] = st
	}
	return st, nil
}

// AcquireLease grants runtime a reader or writer lease on group. A writer
// acquire while another runtime's writer lease is unexpired fails with a
// lease-conflict error; acquiring over an expired writer is a takeover —
// the lease epoch bumps and every member's extent fence is re-armed with
// the new holder, fencing the zombie out. A reader acquire never
// conflicts. Acquiring a mode already held renews it.
func (c *Controller) AcquireLease(group, runtime uint64, mode int, ttl time.Duration) (LeaseGrant, error) {
	if runtime == 0 {
		return LeaseGrant{}, fmt.Errorf("controller: lease acquire needs a nonzero runtime id")
	}
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	st, err := c.leaseStateLocked(group)
	if err != nil {
		return LeaseGrant{}, err
	}
	now := c.leaseNowLocked()
	c.expireLocked(st, now)
	ttl = c.leaseTTLLocked(ttl)
	switch mode {
	case LeaseWriter:
		if st.writer != 0 && st.writer != runtime {
			c.leaseStats.Rejects++
			return LeaseGrant{}, fmt.Errorf("controller: group %d writer held by runtime %d: %w", group, st.writer, ErrLeaseConflict)
		}
		handover := st.writer == 0 && st.epoch > 0
		first := st.writer == 0 && st.epoch == 0
		if first || handover {
			st.epoch++
			if handover {
				c.leaseStats.Takeovers++
			}
		}
		delete(st.readers, runtime) // an upgrade drops the reader entry
		needFence := st.writer != runtime
		st.writer = runtime
		st.writerExpiry = now.Add(ttl)
		if needFence {
			c.pushFencesLocked(group, runtime)
		}
	case LeaseReader:
		st.readers[runtime] = now.Add(ttl)
	default:
		return LeaseGrant{}, fmt.Errorf("controller: unknown lease mode %d", mode)
	}
	c.leaseStats.Grants++
	return LeaseGrant{Epoch: st.epoch, Version: st.version, TTL: ttl}, nil
}

// RenewLease extends runtime's existing lease. A writer renew fails with
// a lease-conflict error when the lease was lost (expired and taken
// over, or never held) — the signal to stop writing. A reader renew is a
// re-grant; its returned Version is the invalidation channel: when it
// advanced past the reader's cached version, the reader must drop its
// cached pages for the group.
func (c *Controller) RenewLease(group, runtime uint64, mode int, ttl time.Duration) (LeaseGrant, error) {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	st, err := c.leaseStateLocked(group)
	if err != nil {
		return LeaseGrant{}, err
	}
	now := c.leaseNowLocked()
	c.expireLocked(st, now)
	ttl = c.leaseTTLLocked(ttl)
	switch mode {
	case LeaseWriter:
		if st.writer != runtime {
			c.leaseStats.Rejects++
			return LeaseGrant{}, fmt.Errorf("controller: group %d writer lease not held by runtime %d: %w", group, runtime, ErrLeaseConflict)
		}
		st.writerExpiry = now.Add(ttl)
	case LeaseReader:
		st.readers[runtime] = now.Add(ttl)
	default:
		return LeaseGrant{}, fmt.Errorf("controller: unknown lease mode %d", mode)
	}
	c.leaseStats.Grants++
	return LeaseGrant{Epoch: st.epoch, Version: st.version, TTL: ttl}, nil
}

// ReleaseLease drops every lease runtime holds on group. Releasing the
// writer lease clears the member fences (holder 0), reopening the group
// for ordinary unleased writes. Releasing a lease not held is a no-op.
func (c *Controller) ReleaseLease(group, runtime uint64) error {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	st := c.leases[group]
	if st == nil {
		return nil
	}
	delete(st.readers, runtime)
	if st.writer == runtime && runtime != 0 {
		st.writer = 0
		c.pushFencesLocked(group, 0)
	}
	return nil
}

// PublishLease is the writer's invalidation: it bumps group's version —
// the signal readers poll for on renew — and refreshes the writer lease.
// The caller must have flushed its dirty lines to every member BEFORE
// publishing; that ordering is what §14's monotonicity argument rests
// on. Publishing without holding the writer lease fails with a
// lease-conflict error.
func (c *Controller) PublishLease(group, runtime uint64) (LeaseGrant, error) {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	st, err := c.leaseStateLocked(group)
	if err != nil {
		return LeaseGrant{}, err
	}
	now := c.leaseNowLocked()
	c.expireLocked(st, now)
	if st.writer != runtime || runtime == 0 {
		c.leaseStats.Rejects++
		return LeaseGrant{}, fmt.Errorf("controller: group %d publish by non-writer runtime %d: %w", group, runtime, ErrLeaseConflict)
	}
	st.version++
	ttl := c.leaseTTLLocked(0)
	st.writerExpiry = now.Add(ttl)
	c.leaseStats.Publishes++
	return LeaseGrant{Epoch: st.epoch, Version: st.version, TTL: ttl}, nil
}

// LeaseSnapshot returns the directory's counters plus live writer/reader
// totals (lazily expiring nothing — gauges reflect granted state).
func (c *Controller) LeaseSnapshot() LeaseStats {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	out := c.leaseStats
	for _, st := range c.leases {
		if st.writer != 0 {
			out.Writers++
		}
		out.Readers += len(st.readers)
	}
	return out
}

// rearmFence re-arms the extent fence on one freshly committed group
// member (a repair or migration target): the lease table survives the
// flip, so the new extent must reject the same stale writers the old one
// did. Called after CommitReplacement succeeds, outside c.mu.
func (c *Controller) rearmFence(m slab.Slab) {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	if st := c.leases[m.ID]; st != nil && st.writer != 0 {
		c.fenceLocked(m, st.writer)
	}
}

// dropLeaseState retires a group's directory entry once the group itself
// is released (its version history dies with the data).
func (c *Controller) dropLeaseState(group uint64) {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	delete(c.leases, group)
}
