// Command kona-memnode runs one disaggregated-memory node as a TCP
// daemon: it registers its offered capacity with the rack controller and
// serves remote reads, remote writes and the cache-line log receiver.
//
// Usage:
//
//	kona-memnode -id 0 -capacity 67108864 -controller 127.0.0.1:7070
//
// The registration client's wire policy is configurable (-dial-timeout,
// -req-timeout, -retries, -pool), and the daemon's own listener can
// inject faults for chaos testing (-fault-drop, -fault-delay, ...).
//
// -metrics-addr serves the node's telemetry registry over HTTP
// (DESIGN.md §7): GET /metrics (text, or ?format=json) and
// GET /debug/events. The registry covers both the serving side (request
// counters, log/read/write byte volumes) and the registration client's
// RPC latency histograms.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kona/internal/cllog"
	"kona/internal/cluster"
	"kona/internal/telemetry"
)

func main() {
	var (
		id          = flag.Int("id", 0, "node identifier (unique per rack)")
		capacity    = flag.Uint64("capacity", 64<<20, "offered memory in bytes")
		listen      = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		ctrlAddr    = flag.String("controller", "", "controller address to register with (optional)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/events on this HTTP address (empty = telemetry disabled)")

		loadInterval = flag.Duration("load-interval", 500*time.Millisecond, "cadence of load reports pushed to the controller (0 disables)")

		dialTimeout = flag.Duration("dial-timeout", 2*time.Second, "TCP dial timeout")
		reqTimeout  = flag.Duration("req-timeout", 5*time.Second, "per-attempt request deadline")
		retries     = flag.Int("retries", 3, "retry budget for idempotent requests (-1 disables)")
		poolSize    = flag.Int("pool", 4, "persistent connections kept per peer")
		grace       = flag.Duration("drain-grace", 5*time.Second, "shutdown drain budget for in-flight RPCs")

		faultDrop    = flag.Float64("fault-drop", 0, "probability an I/O op drops the connection (chaos testing)")
		faultDelay   = flag.Float64("fault-delay", 0, "probability an I/O op is delayed (chaos testing)")
		faultMaxWait = flag.Duration("fault-max-delay", 5*time.Millisecond, "upper bound of an injected delay")
		faultPartial = flag.Float64("fault-partial", 0, "probability a write is truncated mid-frame (chaos testing)")
		faultReset   = flag.Float64("fault-reset", 0, "probability a fresh connection is reset immediately (chaos testing)")
		faultSeed    = flag.Int64("fault-seed", 0, "fault-injection RNG seed (0 = from clock)")
	)
	flag.Parse()
	if *capacity > cllog.MaxRegion {
		fmt.Fprintf(os.Stderr, "kona-memnode: -capacity %d exceeds %d bytes, the cache-line log's line-index limit (a u32 index of 64 B lines)\n",
			*capacity, cllog.MaxRegion)
		os.Exit(1)
	}

	var reg *telemetry.Registry // nil keeps every metric site a no-op
	if *metricsAddr != "" {
		reg = telemetry.New(0)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kona-memnode: %v\n", err)
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

	node := cluster.NewMemoryNode(*id, *capacity)
	srv := cluster.ServeMemoryNodeOnWith(node, l, reg)
	defer srv.Close()

	metrics := "off"
	if reg != nil {
		ms, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kona-memnode: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		metrics = ms.Addr()
	}
	// One structured line with the effective configuration, grep-able in
	// deployment logs.
	fmt.Printf("kona-memnode: config id=%d capacity=%d listen=%s controller=%s metrics=%s pool=%d retries=%d dial-timeout=%s req-timeout=%s faults=%t\n",
		*id, *capacity, srv.Addr(), *ctrlAddr, metrics, *poolSize, *retries, *dialTimeout, *reqTimeout, faults)
	fmt.Printf("kona-memnode: node %d serving %d bytes on %s\n", *id, *capacity, srv.Addr())

	if *ctrlAddr != "" {
		tr := cluster.Transport{
			DialTimeout:    *dialTimeout,
			RequestTimeout: *reqTimeout,
			MaxRetries:     *retries,
			PoolSize:       *poolSize,
			Metrics:        reg,
		}
		cc := cluster.DialControllerTransport(*ctrlAddr, tr)
		defer cc.Close()
		epoch, err := cc.RegisterNodeEpoch(*id, *capacity, srv.Addr())
		if err != nil {
			fmt.Fprintf(os.Stderr, "kona-memnode: registration failed: %v\n", err)
			os.Exit(1)
		}
		// Adopt the assigned incarnation: data RPCs stamped with an older
		// incarnation (pre-crash placements) are now fenced off (§10).
		node.SetIncarnation(epoch)
		fmt.Printf("kona-memnode: registered with controller %s (incarnation %d)\n", *ctrlAddr, epoch)

		// Push cumulative load counters to the controller's load map
		// (DESIGN.md §13). Best-effort: a dropped report only delays the
		// next load-map update, so errors are ignored.
		if *loadInterval > 0 {
			stopLoad := make(chan struct{})
			defer close(stopLoad)
			go func() {
				t := time.NewTicker(*loadInterval)
				defer t.Stop()
				for {
					select {
					case <-stopLoad:
						return
					case <-t.C:
						_ = cc.ReportLoad(*id, node.LoadCounters())
					}
				}
			}()
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop accepting, let in-flight RPCs finish, close.
	fmt.Println("kona-memnode: draining")
	n := srv.Shutdown(*grace)
	fmt.Printf("kona-memnode: drained %d connections, shutting down\n", n)
}
