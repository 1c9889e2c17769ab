package main

import (
	"fmt"
	"net"
	"time"

	"kona"
	"kona/internal/cluster"
	"kona/internal/kv"
	"kona/internal/telemetry"
)

// The stack under test is the one kona-kvd ships, assembled in one
// process: a controller daemon and two memnode daemons on loopback TCP,
// a runtime attached with the default transport policy, the sharded
// store, the text-protocol server. Telemetry registries are on, as they
// are when the daemons run with -metrics-addr; the counters double as
// the benchmark's counts.
const (
	memNodes    = 2
	fmemBytes   = 16 << 20
	storeShards = 16
)

// rack is the memory side: controller + memnodes. It outlives the
// repeated set-ups of one run, so the memnode pools are touched once
// and peak RSS follows the data set, not the repetition count.
type rack struct {
	nodeBytes uint64
	ctrl      *cluster.ControllerServer
	// dir is the controller's directory; its node records carry the
	// carve accounting (the memnode daemons only hold the bytes).
	dir      *cluster.Controller
	nodeSrvs []*cluster.MemoryNodeServer
	// memReg is shared by both memnodes (same names, so their counters
	// sum); ctrlReg is the controller's.
	memReg, ctrlReg *telemetry.Registry
}

// listenLoopback opens a daemon's listener; with a recorder it goes
// under the residence-stamping wrapper (class as in spanListener).
func listenLoopback(rec *recorder, class int) (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if rec != nil {
		return spanListener{Listener: l, rec: rec, class: class}, nil
	}
	return l, nil
}

// buildRack starts the daemons, each memnode offering nodeBytes. rec,
// when non-nil, puts the residence stamping wrapper under every daemon
// listener (traced pass only).
func buildRack(nodeBytes uint64, rec *recorder) (*rack, error) {
	r := &rack{nodeBytes: nodeBytes, dir: cluster.NewController(), memReg: telemetry.New(0), ctrlReg: telemetry.New(0)}
	l, err := listenLoopback(rec, classCtrl)
	if err != nil {
		return nil, err
	}
	r.ctrl = cluster.ServeControllerOnWith(r.dir, l, r.ctrlReg)
	cc := cluster.DialController(r.ctrl.Addr())
	defer cc.Close()
	for i := 0; i < memNodes; i++ {
		l, err := listenLoopback(rec, -1)
		if err != nil {
			r.close()
			return nil, err
		}
		node := cluster.NewMemoryNode(i, nodeBytes)
		srv := cluster.ServeMemoryNodeOnWith(node, l, r.memReg)
		r.nodeSrvs = append(r.nodeSrvs, srv)
		// Register the way kona-memnode does, adopting the incarnation.
		epoch, err := cc.RegisterNodeEpoch(i, nodeBytes, srv.Addr())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("register memnode %d: %w", i, err)
		}
		node.SetIncarnation(epoch)
	}
	return r, nil
}

func (r *rack) close() {
	for _, s := range r.nodeSrvs {
		s.Close()
	}
	r.ctrl.Close()
}

// compute is the compute side: runtime, and for the kv workloads the
// store, the server and the one client connection.
type compute struct {
	reg    *telemetry.Registry
	kona   *kona.Runtime
	rt     kv.Runtime // kona, or the timing decorator around it
	store  *kv.Store
	server *kv.Server
	served chan error
	client *kv.Client
}

// newCompute attaches a runtime to the rack and, when withKV, layers the
// kvd service on it and dials the single client connection.
func newCompute(r *rack, replicas int, withKV bool, rec *recorder) (*compute, error) {
	c := &compute{reg: telemetry.New(0)}
	cfg := kona.DefaultConfig(fmemBytes)
	cfg.Replicas = replicas
	cfg.Metrics = c.reg
	tr := kona.DefaultTransportPolicy()
	tr.Metrics = c.reg
	c.kona = kona.NewTCPWith(cfg, r.ctrl.Addr(), tr)
	c.rt = c.kona
	if rec != nil {
		c.rt = &tracedRuntime{Runtime: c.kona, rec: rec}
	}
	if !withKV {
		return c, nil
	}
	c.store = kv.NewStore(c.rt, kv.Config{Shards: storeShards, Metrics: c.reg})
	c.server = kv.NewServer(c.store, c.reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.served = make(chan error, 1)
	go func() { c.served <- c.server.Serve(l) }()
	c.client, err = kv.Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close drains the service and hands the runtime's slabs back to the
// rack, so the next set-up reuses the same memnode extents.
func (c *compute) close() error {
	if c.client != nil {
		c.client.Close()
	}
	if c.server != nil {
		c.server.Shutdown(2 * time.Second)
		if err := <-c.served; err != nil {
			return fmt.Errorf("kvd serve: %w", err)
		}
	}
	clock := kona.Time(0)
	if c.store != nil {
		clock = c.store.Clock()
	}
	return c.kona.Close(clock)
}
