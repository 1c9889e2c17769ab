// Command kona-kvd is the memcached-style KV daemon on Kona remote
// memory (DESIGN.md §12): the key index lives in local memory, every
// value lives in disaggregated pages behind the runtime's fetch /
// dirty-track / evict path, and keys route to lock-striped store shards
// by consistent hashing.
//
// Against a real rack (a kona-controller and its kona-memnodes):
//
//	kona-kvd -listen 127.0.0.1:11211 -controller 127.0.0.1:7070 \
//	         -cache-bytes 8388608 -replicas 2 -metrics-addr 127.0.0.1:9092
//
// -metrics-addr serves the telemetry registry over HTTP (DESIGN.md §7):
// GET /metrics, GET /debug/events and the Go profiles under
// GET /debug/pprof/, e.g. `go tool pprof http://127.0.0.1:9092/debug/pprof/profile?seconds=10`.
//
// With no -controller it builds an in-process simulated rack — a
// single-binary demo target for kona-kvload.
//
// The protocol is memcached's text protocol: get/gets, set, delete,
// stats, version, quit (exptime accepted, ignored — eviction is
// capacity-driven via -max-bytes). SIGINT/SIGTERM drain gracefully:
// stop accepting, finish in-flight commands, sync the cache-line log,
// then exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kona"
	"kona/internal/kv"
	"kona/internal/telemetry"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:11211", "TCP listen address for the KV protocol")
		ctrlAddr    = flag.String("controller", "", "rack controller address (empty = in-process simulated rack)")
		cacheBytes  = flag.Uint64("cache-bytes", 16<<20, "local FMem cache size (the paper's knob: smaller = more remote traffic)")
		replicas    = flag.Int("replicas", 1, "memory-node copies per slab")
		shards      = flag.Int("shards", 16, "store shard count (consistent-hash routed)")
		maxBytes    = flag.Uint64("max-bytes", 0, "live value-heap cap; past it LRU entries are evicted (0 = uncapped)")
		simNodes    = flag.Int("sim-nodes", 2, "memory nodes in the in-process rack (no -controller only)")
		simCapacity = flag.Uint64("sim-capacity", 256<<20, "per-node capacity of the in-process rack")
		syncEvery   = flag.Duration("sync-interval", 100*time.Millisecond, "background cache-line-log sync cadence")
		grace       = flag.Duration("drain-grace", 5*time.Second, "shutdown drain budget for in-flight commands")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/events and /debug/pprof/ on this HTTP address (empty = telemetry and profiling disabled)")

		dialTimeout = flag.Duration("dial-timeout", 2*time.Second, "TCP dial timeout to the rack")
		reqTimeout  = flag.Duration("req-timeout", 5*time.Second, "per-attempt rack request deadline")
		retries     = flag.Int("retries", 3, "retry budget for idempotent rack requests (-1 disables)")
		poolSize    = flag.Int("pool", 4, "persistent connections kept per rack peer")
	)
	flag.Parse()

	var reg *telemetry.Registry // nil keeps every metric site a no-op
	if *metricsAddr != "" {
		reg = telemetry.New(0)
	}

	cfg := kona.DefaultConfig(*cacheBytes)
	cfg.Replicas = *replicas
	cfg.Metrics = reg

	var rt *kona.Runtime
	if *ctrlAddr != "" {
		tr := kona.DefaultTransportPolicy()
		tr.DialTimeout = *dialTimeout
		tr.RequestTimeout = *reqTimeout
		tr.MaxRetries = *retries
		tr.PoolSize = *poolSize
		tr.Metrics = reg
		rt = kona.NewTCPWith(cfg, *ctrlAddr, tr)
	} else {
		rt = kona.New(cfg, kona.NewCluster(*simNodes, *simCapacity))
	}

	store := kv.NewStore(rt, kv.Config{
		Shards:   *shards,
		MaxBytes: *maxBytes,
		Metrics:  reg,
	})
	srv := kv.NewServer(store, reg)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kona-kvd: %v\n", err)
		os.Exit(1)
	}

	metrics := "off"
	if reg != nil {
		ms, err := telemetry.ServeHandler(*metricsAddr, metricsHandler(reg, rt))
		if err != nil {
			fmt.Fprintf(os.Stderr, "kona-kvd: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		metrics = ms.Addr()
	}

	rack := *ctrlAddr
	if rack == "" {
		rack = fmt.Sprintf("sim(%d nodes x %dMB)", *simNodes, *simCapacity>>20)
	}
	// One structured line with the effective configuration, grep-able in
	// deployment logs.
	fmt.Printf("kona-kvd: config listen=%s rack=%s cache=%d replicas=%d shards=%d max-bytes=%d sync=%s metrics=%s\n",
		l.Addr(), rack, *cacheBytes, *replicas, *shards, *maxBytes, *syncEvery, metrics)

	stopSync := make(chan struct{})
	go srv.RunSyncLoop(*syncEvery, stopSync, func(err error) {
		fmt.Fprintf(os.Stderr, "kona-kvd: %v\n", err)
	})

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	fmt.Printf("kona-kvd: serving keys on %s\n", l.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("kona-kvd: %v: draining (grace %s)\n", s, *grace)
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "kona-kvd: serve: %v\n", err)
			os.Exit(1)
		}
	}
	drained := srv.Shutdown(*grace)
	close(stopSync)
	// Final sync: every acknowledged write reaches the memory nodes
	// before the process exits.
	if _, err := store.Sync(store.Clock()); err != nil {
		fmt.Fprintf(os.Stderr, "kona-kvd: final sync: %v\n", err)
	}
	st := store.Stats()
	fmt.Printf("kona-kvd: drained %d connections; served %d keys, %d hits, %d misses, %d evictions\n",
		drained, st.Keys, st.Hits, st.Misses, st.Evictions)
}

// metricsHandler serves reg, first publishing rt's private counters — the
// FPGA model's (core.fpga.*) and the eviction arenas' bytes — which
// otherwise reach the registry only at a Sync, so a scrape between two
// sync ticks reads them current.
func metricsHandler(reg *telemetry.Registry, rt *kona.Runtime) http.Handler {
	h := telemetry.Handler(reg)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			rt.PublishTelemetry()
		}
		h.ServeHTTP(w, r)
	})
}
