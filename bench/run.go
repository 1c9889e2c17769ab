package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"kona/internal/telemetry"
)

// runConfig is one invocation: one workload, one seed, one pass.
type runConfig struct {
	wl      workload
	seed    int64
	seconds float64
	// trace selects the traced pass (per-layer metrics) over the plain
	// one (end-to-end metrics).
	trace bool
	// traceFile, when set, receives the traced pass's spans.
	traceFile string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// why says what made the run incorrect; it goes to stderr only.
	why string
}

const (
	// setupReps is how often one run attaches and loads the compute
	// side; setup_s reports the median, so one host burst cannot move it.
	setupReps = 3
	// minWindows keeps the median over windows meaningful even on a
	// host so slow that --seconds buys fewer.
	minWindows = 9
	// nominalRefRTT turns set-up time from reference round trips back
	// into seconds: setup_s is the set-up's wall time on a host whose
	// loopback echo takes this long (this VM's typical value). Raw wall
	// seconds follow the host: kv-write's set-up read 2.08 s in one set
	// of ten runs and 2.61 s in the next, half an hour later — the whole
	// bound — while every normalised metric agreed within 2%.
	nominalRefRTT = 10 * time.Microsecond
)

// counters is one reading of every count the metrics are deltas of.
type counters struct {
	compute, mem, ctrl telemetry.Snapshot
	ms                 runtime.MemStats
	t                  tally
	ops                int
	// peakRSSMB is the process's high-water mark so far (the verify pass
	// that follows the last reading is not part of it).
	peakRSSMB float64
}

func (p *pass) readCounters() counters {
	p.c.kona.PublishTelemetry()
	s := counters{compute: p.c.reg.Snapshot(), mem: p.rack.memReg.Snapshot(), ctrl: p.rack.ctrlReg.Snapshot(),
		t: *p.d.counts(), ops: p.opCount}
	runtime.ReadMemStats(&s.ms)
	s.peakRSSMB = peakRSSMB()
	return s
}

// pass is the state of one run between set-up and teardown.
type pass struct {
	cfg  runConfig
	rack *rack
	c    *compute
	d    driver
	rec  *recorder
	ref  *refKernel

	opCount int // ops issued since the load, across windows
	windows []window
	// per-op latencies of the plain windows, kept only by the traced
	// pass: quantiles are reported, never gated.
	readLat, writeLat, syncLat []float64
}

func newDriver(wl workload, c *compute, rec *recorder, seed int64) driver {
	if wl.pages > 0 {
		return newPageDriver(wl, c, rec, seed)
	}
	return newKVDriver(wl, c, rec, seed)
}

// runWorkload is the whole protocol: set up (timed), probe (traced
// pass), one discarded warm-up window, windows until the time is up, a
// full verify pass, teardown, and the set-up repetitions.
func runWorkload(cfg runConfig) (result, error) {
	p := &pass{cfg: cfg}
	if cfg.trace {
		p.rec = newRecorder()
	}
	var err error
	if p.ref, err = newRefKernel(); err != nil {
		return result{}, err
	}
	defer p.ref.close()
	start := time.Now()
	if p.rack, err = buildRack(cfg.wl.nodeBytes, p.rec); err != nil {
		return result{}, err
	}
	defer p.rack.close()
	rackT := time.Since(start)
	var first setUp
	if p.c, p.d, first, err = p.attachAndLoad(); err != nil {
		return result{}, err
	}
	// The rack is built once; it is put on the first load's yardstick.
	rackRel := rackT.Seconds() / first.ref.rtt()
	loads := append(make([]float64, 0, setupReps), first.rel())

	var pr probe
	if cfg.trace {
		if pr, err = runProbe(p.rack, p.rec, p.ref); err != nil {
			return result{}, fmt.Errorf("probe: %w", err)
		}
	}
	before, after, err := p.measure()
	if err != nil {
		return result{}, err
	}
	if err := p.d.verify(); err != nil {
		return result{}, fmt.Errorf("verify: %w", err)
	}
	if err := p.c.close(); err != nil {
		return result{}, fmt.Errorf("teardown: %w", err)
	}
	if !cfg.trace {
		// Repeat the set-up for setup_s's median. After the measurement,
		// not before it: memory the repetitions touch must not count
		// towards the measured run's peak RSS, which is already read.
		for len(loads) < setupReps {
			c, _, su, err := p.attachAndLoad()
			if err != nil {
				return result{}, err
			}
			loads = append(loads, su.rel())
			if err := c.close(); err != nil {
				return result{}, fmt.Errorf("teardown: %w", err)
			}
		}
	}

	t := p.d.counts()
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if t.failed > 0 {
		res.why = fmt.Sprintf("%d of %d ops failed; first: %s", t.failed, t.attempted, t.firstFailure)
	}
	dl := diffCounters(before, after)
	if cfg.trace {
		p.layerMetrics(res.Metrics, dl, pr)
		if gap := res.Metrics["loadgen.budget_gap_frac"].Value; math.Abs(gap) > budgetTolerance {
			res.why = fmt.Sprintf("layer budget misses the traced end-to-end mean by %.1f%%", 100*gap)
		}
		if cfg.traceFile != "" {
			if err := p.rec.writeFile(cfg.traceFile, cfg.wl.name, cfg.seed); err != nil {
				return result{}, fmt.Errorf("trace file: %w", err)
			}
		}
	} else {
		p.endToEndMetrics(res.Metrics, dl, (rackRel+median(loads))*nominalRefRTT.Seconds())
	}
	if f := dl.fetchesPerOp(); res.why == "" &&
		((cfg.wl.fetchMin > 0 && f < cfg.wl.fetchMin) || (cfg.wl.fetchMax > 0 && f > cfg.wl.fetchMax)) {
		res.why = fmt.Sprintf("workload is mis-sized: %.3f fetches/op outside [%g, %g]", f, cfg.wl.fetchMin, cfg.wl.fetchMax)
	}
	res.Correct = res.why == ""
	return res, nil
}

// setUp is one timed attach-and-load: its wall time without the
// reference bursts, and the reference kernel as sampled during it.
type setUp struct {
	wall time.Duration
	ref  refMeter
}

// rel is the set-up's duration in reference round trips.
func (s setUp) rel() float64 { return s.wall.Seconds() / s.ref.rtt() }

// attachAndLoad is the part of set-up that can be repeated on one rack:
// attach a compute side, load the data set.
func (p *pass) attachAndLoad() (*compute, driver, setUp, error) {
	var su setUp
	start := time.Now()
	c, err := newCompute(p.rack, p.cfg.wl.replicas, p.cfg.wl.pages == 0, p.rec)
	if err != nil {
		return nil, nil, su, err
	}
	d := newDriver(p.cfg.wl, c, p.rec, p.cfg.seed)
	if err := d.load(func(i int) error { return su.ref.tick(p.ref, i) }); err != nil {
		return nil, nil, su, fmt.Errorf("load: %w", err)
	}
	su.wall = time.Since(start) - su.ref.total
	if t := d.counts(); t.failed > 0 {
		return nil, nil, su, fmt.Errorf("load: %d of %d ops failed; first: %s", t.failed, t.attempted, t.firstFailure)
	}
	return c, d, su, nil
}

// measure runs the warm-up window and then the measured windows, and
// returns the counter readings around the measured ones.
func (p *pass) measure() (before, after counters, err error) {
	modes := []winMode{modePlain}
	if p.cfg.trace {
		modes = []winMode{modePlain, modeTraced}
		if p.cfg.wl.pages == 0 {
			modes = append(modes, modeDirect)
		}
	}
	if _, err = p.runWindow(modePlain); err != nil {
		return
	}
	before = p.readCounters()
	deadline := time.Now().Add(time.Duration(p.cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		// Stop on the clock, but only after whole cycles of the modes and
		// enough windows for a median.
		if i%len(modes) == 0 && i >= minWindows && time.Now().After(deadline) {
			break
		}
		var w window
		if w, err = p.runWindow(modes[i%len(modes)]); err != nil {
			return
		}
		p.windows = append(p.windows, w)
		// Collect between windows, outside every timed region. Left to
		// itself the collector would not run at all: the memnode pools
		// put its next target a gigabyte away, so garbage — and with it
		// peak RSS — would grow with however many ops the host let
		// through. This way peak RSS is the data set plus the live heap.
		runtime.GC()
	}
	after = p.readCounters()
	return
}

func (p *pass) runWindow(mode winMode) (window, error) {
	w := window{mode: mode, ops: p.cfg.wl.windowOps}
	keep := p.cfg.trace && mode == modePlain
	if p.rec != nil {
		p.rec.resetSums()
		p.rec.on.Store(mode != modePlain)
	}
	start := time.Now()
	for i := 0; i < w.ops; i++ {
		read, lat := p.d.op(mode)
		if read {
			w.reads++
			w.readT += lat
			if keep {
				p.readLat = append(p.readLat, lat.Seconds()*1e6)
			}
		} else {
			w.writes++
			w.writeT += lat
			if keep {
				p.writeLat = append(p.writeLat, lat.Seconds()*1e6)
			}
		}
		if err := w.ref.tick(p.ref, i); err != nil {
			return w, err
		}
		if p.opCount++; p.opCount%p.cfg.wl.syncEvery == 0 {
			s := time.Now()
			if err := p.d.sync(); err != nil {
				return w, fmt.Errorf("sync: %w", err)
			}
			lat := time.Since(s)
			w.syncs++
			w.syncT += lat
			if keep {
				p.syncLat = append(p.syncLat, lat.Seconds()*1e6)
			}
		}
	}
	w.wall = time.Since(start) - w.ref.total
	if p.rec != nil {
		p.rec.on.Store(false)
		w.tr = p.rec.takeSums()
	}
	return w, nil
}

// delta is the measured phase's counts.
type delta struct {
	compute, mem, ctrl telemetry.Snapshot
	mallocs, allocB    uint64
	gcCycles           uint32
	gcPauseNs          uint64
	ops                int
	bytesRead, bytesW  uint64
	peakRSSMB          float64
}

func diffCounters(a, b counters) delta {
	return delta{
		compute: b.compute.Delta(a.compute), mem: b.mem.Delta(a.mem), ctrl: b.ctrl.Delta(a.ctrl),
		mallocs: b.ms.Mallocs - a.ms.Mallocs, allocB: b.ms.TotalAlloc - a.ms.TotalAlloc,
		gcCycles: b.ms.NumGC - a.ms.NumGC, gcPauseNs: b.ms.PauseTotalNs - a.ms.PauseTotalNs,
		ops:       b.ops - a.ops,
		bytesRead: b.t.bytesRead - a.t.bytesRead, bytesW: b.t.bytesWritten - a.t.bytesWritten,
		peakRSSMB: b.peakRSSMB,
	}
}

func (d delta) perOp(n uint64) float64 { return float64(n) / float64(d.ops) }

func (d delta) fetchesPerOp() float64 { return d.perOp(d.compute.Counters["core.fetches"]) }

// sumPrefix adds every counter whose name starts with prefix.
func sumPrefix(s telemetry.Snapshot, prefix string) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// endToEndMetrics fills the 11 gated metrics from the plain windows.
func (p *pass) endToEndMetrics(m map[string]metric, d delta, setupS float64) {
	ws := p.windows
	m["setup_s"] = metric{setupS, "s"}
	m["ops_rel"] = metric{medianOver(ws, modePlain, (*window).opsRel), "op/ref_rtt"}
	m["read_mean_rel"] = metric{medianOver(ws, modePlain, func(w *window) (float64, bool) { return w.meanRel(w.readT, w.reads) }), "ref_rtt"}
	m["write_mean_rel"] = metric{medianOver(ws, modePlain, func(w *window) (float64, bool) { return w.meanRel(w.writeT, w.writes) }), "ref_rtt"}
	m["sync_mean_rel"] = metric{medianOver(ws, modePlain, func(w *window) (float64, bool) { return w.meanRel(w.syncT, w.syncs) }), "ref_rtt"}
	mem := d.mem.Counters
	m["read_amp"] = metric{ratio(mem["cluster.memnode.tx_bytes.read"]+mem["cluster.memnode.tx_bytes.read-pages"], d.bytesRead), "B/B"}
	m["write_amp"] = metric{ratio(mem["cluster.memnode.rx_bytes.write-log"]+mem["cluster.memnode.rx_bytes.write"], d.bytesW), "B/B"}
	m["rtts_per_op"] = metric{d.perOp(sumPrefix(d.mem, "cluster.memnode.served.") + sumPrefix(d.ctrl, "cluster.controller.served.")), "1/op"}
	m["allocs_per_op"] = metric{d.perOp(d.mallocs), "1/op"}
	m["alloc_bytes_per_op"] = metric{d.perOp(d.allocB), "B/op"}
	m["peak_rss_mb"] = metric{d.peakRSSMB, "MB"}
}
