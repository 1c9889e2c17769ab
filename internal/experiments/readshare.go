package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/mem"
)

func init() {
	register("ext-readshare",
		"Extension: reader scaling on a shared region — 1 writer + 1/2/4 readers under slab leases (DESIGN.md §14)",
		runExtReadShare)
}

// runExtReadShare measures what sharing a region costs each side of the
// lease protocol (DESIGN.md §14) as readers scale. One runtime owns a
// region, shares it with ShareWriter, and publishes a new version every
// round (dirty all records, Sync); 1/2/4 reader runtimes attach the group
// at the same virtual addresses, observe the publish via
// PollInvalidations, and re-read the whole region. The driver verifies
// every observed record — version header must equal the round just
// published (no stale reads survive an invalidation) and the payload must
// match the version's deterministic bytes (no torn reads) — and reports
// the writer's per-Sync virtual-time p99 against the unshared baseline
// alongside the readers' per-round refresh cost. The claims under test:
// the writer's flush path carries one publish RPC of lease work and
// nothing proportional to reader count, and a reader's coherence cost is
// its own refetch of the pages it actually re-reads.
func runExtReadShare(cfg Config) (*Result, error) {
	rounds := 300
	if cfg.Quick {
		rounds = 80
	}
	const (
		slots   = 64 // one record per page
		recSize = 256
		region  = slots * uint64(mem.PageSize)
	)

	// record renders slot's payload at a version: an 8-byte version header
	// plus bytes drawn deterministically from (version, slot), so any mix
	// of two versions in one observed record is detectable.
	record := func(slot, version int) []byte {
		b := make([]byte, recSize)
		binary.BigEndian.PutUint64(b, uint64(version))
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(version)<<8 ^ int64(slot)))
		rng.Read(b[8:])
		return b
	}

	type regime struct {
		name    string
		readers int // -1: unshared baseline (no lease at all)
	}
	regimes := []regime{
		{"unshared baseline", -1},
		{"1 writer + 1 reader", 1},
		{"1 writer + 2 readers", 2},
		{"1 writer + 4 readers", 4},
	}

	t := newTable("Regime", "flush p99", "publishes", "reader refresh", "invals/reader", "stale", "torn")
	res := &Result{}
	var baselineP99, maxSharedP99 time.Duration
	for _, rg := range regimes {
		ctrl := cluster.NewController()
		if err := ctrl.Register(cluster.NewMemoryNode(0, 64<<20)); err != nil {
			return nil, err
		}
		rc := core.DefaultConfig(2 * region) // region fits: every drop is an invalidation, not capacity
		rc.SlabSize = region                 // one slab == the shared group
		rc.Metrics = cfg.Metrics
		w := core.NewKona(rc, ctrl)
		base, err := w.Malloc(region)
		if err != nil {
			return nil, err
		}

		var group uint64
		readers := make([]*core.Kona, 0, 4)
		rdNow := make([]time.Duration, 4)
		if rg.readers >= 0 {
			if group, err = w.ShareWriter(base); err != nil {
				return nil, err
			}
		}

		var wNow time.Duration
		flushLat := make([]time.Duration, 0, rounds)
		var refreshTotal time.Duration
		invals, stale, torn, verified := 0, 0, 0, 0
		for round := 1; round <= rounds; round++ {
			for s := 0; s < slots; s++ {
				if wNow, err = w.Write(wNow, base+mem.Addr(s)*mem.PageSize, record(s, round)); err != nil {
					return nil, fmt.Errorf("%s: round %d write: %w", rg.name, round, err)
				}
			}
			done, err := w.Sync(wNow)
			if err != nil {
				return nil, fmt.Errorf("%s: round %d sync: %w", rg.name, round, err)
			}
			flushLat = append(flushLat, done-wNow)
			wNow = done

			if rg.readers >= 0 && round == 1 {
				// Readers arrive after the first publish, like a consumer
				// attaching to a producer's already-live region.
				for i := 0; i < rg.readers; i++ {
					r := core.NewKona(rc, ctrl)
					rbase, rsize, err := r.AttachReader(group)
					if err != nil {
						return nil, fmt.Errorf("%s: attach reader %d: %w", rg.name, i, err)
					}
					if rbase != base || rsize != region {
						return nil, fmt.Errorf("%s: reader %d mapped [%v,+%d), writer has [%v,+%d)", rg.name, i, rbase, rsize, base, region)
					}
					readers = append(readers, r)
				}
			}
			for i, r := range readers {
				n, err := r.PollInvalidations()
				if err != nil {
					return nil, fmt.Errorf("%s: reader %d poll: %w", rg.name, i, err)
				}
				invals += n
				start := rdNow[i]
				buf := make([]byte, recSize)
				for s := 0; s < slots; s++ {
					if rdNow[i], err = r.Read(rdNow[i], base+mem.Addr(s)*mem.PageSize, buf); err != nil {
						return nil, fmt.Errorf("%s: reader %d slot %d: %w", rg.name, i, s, err)
					}
					verified++
					if v := binary.BigEndian.Uint64(buf); v != uint64(round) {
						stale++
					} else if string(buf) != string(record(s, round)) {
						torn++
					}
				}
				refreshTotal += rdNow[i] - start
			}
		}

		sort.Slice(flushLat, func(i, j int) bool { return flushLat[i] < flushLat[j] })
		p99 := flushLat[len(flushLat)*99/100]
		if rg.readers < 0 {
			baselineP99 = p99
		} else if p99 > maxSharedP99 {
			maxSharedP99 = p99
		}
		refresh, perReader := "-", "-"
		if len(readers) > 0 {
			refresh = fmt.Sprintf("%.1fµs", float64(refreshTotal)/float64(len(readers)*(rounds))/1e3)
			perReader = fmt.Sprintf("%d", invals/len(readers))
		}
		snap := ctrl.LeaseSnapshot()
		t.AddRow(rg.name, fmt.Sprintf("%.2fµs", float64(p99)/1e3),
			snap.Publishes, refresh, perReader, stale, torn)
		if stale > 0 || torn > 0 {
			return nil, fmt.Errorf("%s: %d stale / %d torn of %d verified reads", rg.name, stale, torn, verified)
		}
	}

	res.Text = t.String()
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d rounds × %d records (%dKB region); every record observed by every reader is verified against its round's deterministic bytes — stale/torn must be 0", rounds, slots, region>>10),
		fmt.Sprintf("writer flush p99 with 4 readers is %.2fx the unshared baseline: the shared Sync adds one publish RPC after the flush, nothing per reader (guarded by `make guards`)", float64(maxSharedP99)/float64(baselineP99)),
		"reader refresh is the pull-based coherence bill: each publish drops the reader's cached pages and the next read refetches them (fault-injected variant: TestChaosCoherenceReadersOverWire in `make chaos`)")
	return res, nil
}
