package core

import (
	"errors"
	"time"

	"kona/internal/mem"
	"kona/internal/simclock"
)

// ErrRemoteUnavailable reports that every replica of the address's slab is
// unreachable. Per §4.5's recovery path the access itself is recoverable:
// the runtime surfaces the condition (instead of the machine check a real
// coherence timeout would raise), the application or an operator resolves
// the outage, and the access can simply be retried — the FPGA state is
// unchanged.
var ErrRemoteUnavailable = errors.New("core: remote memory unavailable (all replicas unreachable)")

// Failure handling (§4.5).
//
// 1. Application/compute-host failures need no runtime support beyond
//    today's monolithic-server model.
// 2. Network failures: the coherence protocol was not designed for long
//    delays — a stalled remote fetch eventually trips a machine check
//    exception. The runtime detects fetches that exceed MCETimeout,
//    records them, and (per the paper's option (i), Intel MCA) recovers by
//    retrying/failing over rather than crashing the host.
// 3. Memory-node failures: with Replicas > 1 the Resource Manager places
//    every slab on several nodes, eviction fans the cache-line log out to
//    all replicas, and Translate fails over to a live replica for fetches.

// MCETimeout is the modeled coherence-protocol patience: a VFMem fill
// outstanding longer than this would trip a machine check on the real
// hardware.
const MCETimeout = 100 * time.Microsecond

// FailureStats counts failure-path events.
type FailureStats struct {
	// MCEs is the number of fetches whose latency exceeded MCETimeout
	// (detected and survived via the machine-check architecture path).
	MCEs uint64
	// Failovers is the number of reads served by a non-primary replica.
	Failovers uint64
	// ShipFailureReports is the number of replica outages the evictor
	// reported to the controller (a lost-member detection feed, §10).
	ShipFailureReports uint64
	// PlacementRefreshes counts placement-table refreshes that observed a
	// change (repair flips picked up by this runtime).
	PlacementRefreshes uint64
	// RemappedEntries counts retained eviction-log entries rebased onto a
	// repaired replica.
	RemappedEntries uint64
	// SuspectMembers is the number of members in the catching-up state:
	// installed by a flip and fenced from reads until their catch-up drain
	// (retained entries re-shipped onto the new copy) completes. Zero in a
	// settled rack.
	SuspectMembers int
	// SealedRetains counts ships rejected by an extent sealed for
	// migration, with the entries retained until the flip was picked up
	// (DESIGN.md §13).
	SealedRetains uint64
	// LeaseFencedShips counts eviction-log ships rejected whole by a
	// memnode lease fence: this runtime's writer lease was taken over and
	// a successor's fence rejected the zombie batch (DESIGN.md §14).
	LeaseFencedShips uint64
}

// ReadChecked is Read plus MCE detection: fetch latencies beyond
// MCETimeout are recorded (and survived), modeling the §4.5 recovery path
// instead of a host crash.
func (k *Kona) ReadChecked(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	resident := k.fpga.Resident(addr)
	done, err := k.Read(now, addr, buf)
	if err != nil {
		return done, err
	}
	if !resident && done-now > MCETimeout {
		k.mces.Add(1)
	}
	return done, nil
}

// FailureStats returns the failure-path counters. Failovers are detected
// by the Resource Manager when Translate skips a dead primary.
func (k *Kona) FailureStats() FailureStats {
	k.rm.mu.Lock()
	failovers := k.rm.failovers
	k.rm.mu.Unlock()
	return FailureStats{
		MCEs:               k.mces.Load(),
		Failovers:          failovers,
		SuspectMembers:     k.rm.inState(memberCatchingUp),
		ShipFailureReports: k.evict.shipReports.Load(),
		PlacementRefreshes: k.refreshes.Load(),
		RemappedEntries:    k.evict.remapped.Load(),
		SealedRetains:      k.evict.sealedRetains.Load(),
		LeaseFencedShips:   k.evict.leaseFenced.Load(),
	}
}

// InjectNetworkDelay adds d to every operation toward the given memory
// node (failure injection; 0 clears). Only the simulated transport
// supports it.
func (k *Kona) InjectNetworkDelay(nodeID int, d simclock.Duration) error {
	l, err := k.rm.links.link(nodeID, 0)
	if err != nil {
		return err
	}
	return l.injectDelay(d)
}
