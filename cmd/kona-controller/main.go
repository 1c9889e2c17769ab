// Command kona-controller runs the rack controller as a TCP daemon.
// Memory nodes register with it (see cmd/kona-memnode); compute-side
// clients request slabs from it.
//
// Usage:
//
//	kona-controller -listen 127.0.0.1:7070
//
// For failure-injection experiments the daemon can perturb its own
// listener (drop, delay, reset; see internal/cluster.FaultConfig):
//
//	kona-controller -listen 127.0.0.1:7070 -fault-drop 0.01 -fault-delay 0.2 -fault-max-delay 5ms -fault-seed 1
//
// -metrics-addr serves the telemetry registry over HTTP (DESIGN.md §7):
// GET /metrics (text, or ?format=json), GET /debug/events and the Go
// profiles under GET /debug/pprof/.
//
//	kona-controller -listen 127.0.0.1:7070 -metrics-addr 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kona/internal/cluster"
	"kona/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "TCP listen address")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/events and /debug/pprof/ on this HTTP address (empty = telemetry and profiling disabled)")
	sweepInterval := flag.Duration("sweep-interval", 500*time.Millisecond, "health-sweep + repair cadence (0 disables repair)")
	repairBudget := flag.Float64("repair-budget", 64<<20, "re-replication copy budget in bytes/sec (0 = unlimited)")
	placement := flag.String("placement", cluster.PolicyRR, "slab placement policy: rr (deterministic round-robin) or load (least-loaded with replica anti-affinity)")
	migrateRatio := flag.Float64("migrate-threshold", 0, "hot/cold load ratio that triggers live slab migration (0 disables migration)")
	migrateBudget := flag.Float64("migrate-budget", 64<<20, "migration copy budget in bytes/sec (0 = unlimited)")
	migrateMaxMoves := flag.Int("migrate-max-moves", 1, "max slab migrations started per sweep")
	leaseTTL := flag.Duration("lease-ttl", cluster.DefaultLeaseTTL, "default TTL for slab ownership leases (DESIGN.md §14)")
	grace := flag.Duration("drain-grace", 5*time.Second, "shutdown drain budget for in-flight RPCs")
	var (
		faultDrop    = flag.Float64("fault-drop", 0, "probability an I/O op drops the connection (chaos testing)")
		faultDelay   = flag.Float64("fault-delay", 0, "probability an I/O op is delayed (chaos testing)")
		faultMaxWait = flag.Duration("fault-max-delay", 5*time.Millisecond, "upper bound of an injected delay")
		faultPartial = flag.Float64("fault-partial", 0, "probability a write is truncated mid-frame (chaos testing)")
		faultReset   = flag.Float64("fault-reset", 0, "probability a fresh connection is reset immediately (chaos testing)")
		faultSeed    = flag.Int64("fault-seed", 0, "fault-injection RNG seed (0 = from clock)")
	)
	flag.Parse()

	var reg *telemetry.Registry // nil keeps every metric site a no-op
	if *metricsAddr != "" {
		reg = telemetry.New(0)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kona-controller: %v\n", err)
		os.Exit(1)
	}
	faults := *faultDrop > 0 || *faultDelay > 0 || *faultPartial > 0 || *faultReset > 0
	if faults {
		l = cluster.NewFaultListener(l, cluster.FaultConfig{
			Seed:             *faultSeed,
			DropProb:         *faultDrop,
			DelayProb:        *faultDelay,
			MaxDelay:         *faultMaxWait,
			PartialWriteProb: *faultPartial,
			ResetProb:        *faultReset,
			Metrics:          reg,
		})
	}

	ctrl := cluster.NewController()
	if err := ctrl.SetPlacementPolicy(*placement); err != nil {
		fmt.Fprintf(os.Stderr, "kona-controller: %v\n", err)
		os.Exit(1)
	}
	ctrl.SetLeaseTTL(*leaseTTL)
	srv := cluster.ServeControllerOnWith(ctrl, l, reg)
	defer srv.Close()

	// One background loop (DESIGN.md §10, §13): each tick sweeps node
	// health, re-replicates lost members onto healthy nodes, then — when
	// -migrate-threshold is set — moves slabs off hot nodes by the load map
	// (fed by memnode -load-interval pushes and compute-side Sync reports),
	// each under its own copy budget.
	if *sweepInterval > 0 {
		engine := cluster.NewReplaceEngine(ctrl, ctrl.Dial, cluster.ReplaceConfig{
			RepairBytesPerSec:  *repairBudget,
			MigrateBytesPerSec: *migrateBudget,
			Interval:           *sweepInterval,
			HotRatio:           *migrateRatio,
			MaxMovesPerSweep:   *migrateMaxMoves,
			Metrics:            reg,
		})
		stop := make(chan struct{})
		defer close(stop)
		go engine.Run(stop)
	}

	metrics := "off"
	if reg != nil {
		ms, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kona-controller: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		metrics = ms.Addr()
	}
	// One structured line with the effective configuration, grep-able in
	// deployment logs.
	fmt.Printf("kona-controller: config listen=%s metrics=%s placement=%s migrate-threshold=%g lease-ttl=%s faults=%t fault-drop=%g fault-delay=%g fault-seed=%d\n",
		srv.Addr(), metrics, ctrl.PlacementPolicy(), *migrateRatio, *leaseTTL, faults, *faultDrop, *faultDelay, *faultSeed)
	fmt.Printf("kona-controller: serving on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop accepting, let in-flight RPCs finish, close.
	fmt.Println("kona-controller: draining")
	n := srv.Shutdown(*grace)
	fmt.Printf("kona-controller: drained %d connections, shutting down\n", n)
}
