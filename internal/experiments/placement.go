package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"kona/internal/cluster"
)

func init() {
	register("ext-placement",
		"Extension: load-aware placement and live slab migration — balanced vs unbalanced rack tail latency (DESIGN.md §13)",
		runExtPlacement)
}

// runExtPlacement models a rack of memory nodes serving slabs whose
// access heat is zipfian: a handful of slabs carry most of the traffic,
// so placement that ignores load (deterministic round-robin) lands
// several hot slabs on the same node and that node's queue dominates the
// rack's fetch tail. The experiment carves slabs through a real
// Controller under three capacity-management regimes — static rr, static
// load-aware placement, and rr rescued by the ReplaceEngine's live migration — and
// reports each regime's fetch-latency percentiles from an M/M/1 queue
// model of every node (service time per fetch is fixed; waiting time is
// exponential with the queue's mean). The migration rows exercise the
// full production path: capture, budgeted copy, seal, flip, retire over
// the in-process node adapter, with the load map fed exactly like a
// deployed rack (cumulative counters, EWMA deltas).
func runExtPlacement(cfg Config) (*Result, error) {
	nodes, slabs, sweeps, samples := 32, 128, 40, 200_000
	if cfg.Quick {
		nodes, slabs, sweeps, samples = 12, 48, 15, 50_000
	}
	const (
		slabSize  = 256 << 10
		nodeCap   = 2 << 20 // 8 slab extents per node: headroom for migration targets
		serviceNs = 2_000.0 // per-fetch service time at a memory node
		baseNs    = 3_000.0 // unloaded network + fill cost of a fetch
		zipfS     = 1.1
		window    = 0.1 // seconds of load observed per report tick
	)

	// Zipfian slab heat (ops/sec), shuffled so slab id order carries no
	// information; scaled so rack-average node utilization is 50% — a
	// provisioning an operator would call healthy, which is exactly the
	// regime where one overloaded node hides in the average.
	rng := rand.New(rand.NewSource(cfg.Seed))
	heats := make([]float64, slabs)
	total := 0.0
	for i := range heats {
		heats[i] = 1 / math.Pow(float64(i+1), zipfS)
		total += heats[i]
	}
	rng.Shuffle(len(heats), func(i, j int) { heats[i], heats[j] = heats[j], heats[i] })
	scale := 0.5 * float64(nodes) / (total * serviceNs * 1e-9)
	// Cap any one slab at 70% of a node's service capacity: a slab hotter
	// than a whole node is unfixable by placement — it needs replication
	// or partitioning (kona-kvd shards keys across slabs for exactly this
	// reason). The interesting regime is aggregate imbalance: several
	// warm slabs stacked on one node.
	cap70 := 0.7 / (serviceNs * 1e-9)
	for i := range heats {
		heats[i] *= scale
		if heats[i] > cap70 {
			heats[i] = cap70
		}
	}

	type row struct {
		name    string
		policy  string
		migrate bool
	}
	rows := []row{
		{"rr static", cluster.PolicyRR, false},
		{"load-aware placement", cluster.PolicyLoad, false},
		{"rr + live migration", cluster.PolicyRR, true},
	}

	t := newTable("Regime", "moves", "max node util", "p50", "p99", "p999")
	res := &Result{}
	var rrP99, migP99 float64
	for si, sc := range rows {
		ctrl := cluster.NewController()
		if err := ctrl.SetPlacementPolicy(sc.policy); err != nil {
			return nil, err
		}
		for i := 0; i < nodes; i++ {
			if err := ctrl.Register(cluster.NewMemoryNode(i, nodeCap)); err != nil {
				return nil, err
			}
		}

		gids := make([]uint64, 0, slabs)
		heatOf := make(map[uint64]float64, slabs)
		// nodeRates reads the *current* placement of every slab from the
		// controller, so migration flips show up immediately.
		nodeRates := func() []float64 {
			rates := make([]float64, nodes)
			for _, gid := range gids {
				members, err := ctrl.SlabPlacements(gid)
				if err != nil || len(members) == 0 {
					continue
				}
				rates[members[0].Node] += heatOf[gid]
			}
			return rates
		}
		// report feeds the load map the way a deployed rack does:
		// cumulative per-node counters whose deltas the controller EWMAs.
		cum := make([]float64, nodes)
		report := func() {
			rates := nodeRates()
			for n := 0; n < nodes; n++ {
				cum[n] += rates[n] * window
				ctrl.ReportLoad(n, cluster.LoadSample{ReadBytes: uint64(cum[n])})
			}
		}

		for k := 0; k < slabs; k++ {
			s, err := ctrl.AllocSlab(slabSize, 1)
			if err != nil {
				return nil, fmt.Errorf("%s: carve %d: %w", sc.name, k, err)
			}
			gids = append(gids, s[0].ID)
			heatOf[s[0].ID] = heats[k]
			if sc.policy == cluster.PolicyLoad {
				// The controller only knows the heat of slabs already
				// carved — placement decisions see the load map as it was
				// when the tenant arrived, not an oracle.
				report()
			}
		}

		moves := 0
		if sc.migrate {
			eng := cluster.NewReplaceEngine(ctrl, ctrl.Dial, cluster.ReplaceConfig{
				HotRatio:         1.25,
				MaxMovesPerSweep: 2,
				RetireSweeps:     2,
				Metrics:          cfg.Metrics,
			})
			for i := 0; i < sweeps; i++ {
				// Several report ticks per sweep so the EWMA (alpha 0.5)
				// converges on the post-flip rates before the next decision;
				// sweeping against a stale load map chases its own tail.
				for r := 0; r < 4; r++ {
					report()
				}
				moves += eng.SweepOnce()
			}
		}

		// Queue model: each node is an M/M/1 server at its final placement's
		// arrival rate; a fetch pays base + service + Exp(mean queue wait).
		rates := nodeRates()
		waits := make([]float64, nodes)
		maxRho := 0.0
		for n, r := range rates {
			rho := r * serviceNs * 1e-9
			if rho > maxRho {
				maxRho = rho
			}
			if rho > 0.99 {
				rho = 0.99 // saturated: report the clamped queue, not infinity
			}
			waits[n] = rho / (1 - rho) * serviceNs
		}
		slabNode := make([]int, slabs)
		cdf := make([]float64, slabs)
		acc := 0.0
		for k, gid := range gids {
			members, _ := ctrl.SlabPlacements(gid)
			slabNode[k] = members[0].Node
			acc += heatOf[gid]
			cdf[k] = acc
		}
		srng := rand.New(rand.NewSource(cfg.Seed + int64(si) + 1))
		lat := make([]float64, samples)
		for i := range lat {
			x := srng.Float64() * acc
			k := sort.SearchFloat64s(cdf, x)
			if k >= slabs {
				k = slabs - 1
			}
			l := baseNs + serviceNs
			if w := waits[slabNode[k]]; w > 0 {
				l += srng.ExpFloat64() * w
			}
			lat[i] = l
		}
		sort.Float64s(lat)
		p := func(q float64) string {
			return fmt.Sprintf("%.1fµs", lat[int(q*float64(samples-1))]/1e3)
		}
		p99 := lat[int(0.99*float64(samples-1))]
		switch {
		case sc.name == "rr static":
			rrP99 = p99
		case sc.migrate:
			migP99 = p99
		}
		t.AddRow(sc.name, moves, fmt.Sprintf("%.2f", maxRho), p(0.50), p(0.99), p(0.999))
	}

	res.Text = t.String()
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d memnodes, %d slabs, zipf(%.1f) slab heat, 50%% mean utilization; rr leaves the hottest node saturated while the mean looks healthy", nodes, slabs, zipfS),
		fmt.Sprintf("live migration cuts fetch p99 %.1fx vs static rr (copy-then-flip over the real capture/seal/commit path)", rrP99/migP99))
	return res, nil
}
