package kv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kona/internal/telemetry"
)

// LoadConfig drives one open-loop run against a kvd server.
type LoadConfig struct {
	Workload WorkloadConfig
	// Conns is the client connection (worker) count. Keys route to
	// workers by hash, so writes to one key are totally ordered — what
	// makes the verify pass exact.
	Conns int
	// Ops ends the run after this many operations (0 = use Duration).
	Ops uint64
	// Duration ends the run after this much generated arrival time.
	Duration time.Duration
	// SLOp99/SLOp999 are the latency objectives checked against the
	// overall distribution; 0 skips the check.
	SLOp99, SLOp999 time.Duration
	// Verify re-reads every acknowledged key after the run and proves no
	// acknowledged write was lost, torn, or regressed.
	Verify bool
	// Metrics receives the kvload.get.latency, kvload.set.latency and
	// kvload.latency (every op) histograms; nil uses a private registry.
	Metrics *telemetry.Registry
	// DialTimeout bounds each worker's connect (default 5s).
	DialTimeout time.Duration
}

// LatencySummary is one op class's distribution: nearest-rank quantiles
// from the telemetry histogram, exact below 64 ns and within 1/64 above.
type LatencySummary struct {
	Count          uint64
	Mean           time.Duration
	P50, P99, P999 time.Duration
}

func summarize(h telemetry.HistogramSnapshot) LatencySummary {
	return LatencySummary{
		Count: h.Count,
		Mean:  time.Duration(h.Mean()),
		P50:   time.Duration(h.P50),
		P99:   time.Duration(h.P99),
		P999:  time.Duration(h.P999),
	}
}

// Result is one run's report.
type Result struct {
	Issued, Completed, Errors uint64
	Hits, Misses              uint64
	// Wall is dispatch start to last completion (verify excluded).
	Wall time.Duration
	// OfferedRate is the configured arrival rate; AchievedRate is
	// completions over wall time — they diverge when the server can't
	// keep up (the open-loop overload signal, alongside the tail).
	OfferedRate, AchievedRate float64
	Get, Set, All             LatencySummary
	// SLOViolated is set when a configured objective was missed.
	SLOViolated bool
	// VerifiedKeys and Missing are verify-pass tallies (Verify=true):
	// acknowledged keys checked, and those missing entirely. Torn and
	// Stale count values seen at any read, in the run or the verify pass,
	// that fail the payload pattern or answer with a write older than the
	// last acknowledged one (or newer than the last sent).
	VerifiedKeys, Missing, Torn, Stale uint64
}

// Engine runs the open-loop load. Counters are readable concurrently
// while Run is in flight (progress reporting).
type Engine struct {
	cfg            LoadConfig
	reg            *telemetry.Registry
	getLat, setLat *telemetry.Histogram
	allLat         *telemetry.Histogram // every completed op
	issued         atomic.Uint64
	completed      atomic.Uint64
	errors         atomic.Uint64
	hits, misses   atomic.Uint64
	torn, stale    atomic.Uint64
}

// NewEngine validates the config.
func NewEngine(cfg LoadConfig) (*Engine, error) {
	if _, err := NewGenerator(cfg.Workload); err != nil {
		return nil, err
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Ops == 0 && cfg.Duration == 0 {
		return nil, fmt.Errorf("kv: load needs Ops or Duration")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.New(0)
	}
	return &Engine{
		cfg:    cfg,
		reg:    reg,
		getLat: reg.Histogram("kvload.get.latency"),
		setLat: reg.Histogram("kvload.set.latency"),
		allLat: reg.Histogram("kvload.latency"),
	}, nil
}

// Issued/Completed/Errors expose live progress.
func (e *Engine) Issued() uint64    { return e.issued.Load() }
func (e *Engine) Completed() uint64 { return e.completed.Load() }
func (e *Engine) Errors() uint64    { return e.errors.Load() }

// workItem is one dispatched op with its absolute arrival deadline.
type workItem struct {
	op  Op
	due time.Time
}

// loadWorker owns one connection and the slice of the keyspace that
// hashes to it.
type loadWorker struct {
	e      *Engine
	addr   string
	client *Client
	ch     chan workItem
	// acked maps key -> last acknowledged set seq; issued maps key ->
	// last *sent* set seq (a write may land without its ack being seen).
	acked    map[string]uint64
	issued   map[string]uint64
	valBuf   []byte
	lastDone atomic.Int64 // unix nanos of the latest completion
}

// Run drives the configured run against addr and reports. It blocks
// until dispatch, drain, and (optionally) verify complete.
func (e *Engine) Run(addr string) (Result, error) {
	gen, _ := NewGenerator(e.cfg.Workload) // validated in NewEngine
	workers := make([]*loadWorker, e.cfg.Conns)
	var wg sync.WaitGroup
	for i := range workers {
		c, err := Dial(addr, e.cfg.DialTimeout)
		if err != nil {
			return Result{}, err
		}
		workers[i] = &loadWorker{
			e:      e,
			addr:   addr,
			client: c,
			ch:     make(chan workItem, 4096),
			acked:  make(map[string]uint64),
			issued: make(map[string]uint64),
		}
		wg.Add(1)
		go func(w *loadWorker) {
			defer wg.Done()
			w.run()
		}(workers[i])
	}

	// Open-loop dispatch: ops arrive on the generator's Poisson clock
	// regardless of how the server is doing. A full worker queue blocks
	// the dispatcher, but latency is measured from the *scheduled*
	// arrival, so the backlog still lands in the histograms.
	t0 := time.Now()
	for {
		if e.cfg.Ops > 0 && e.issued.Load() >= e.cfg.Ops {
			break
		}
		op := gen.Next()
		if e.cfg.Ops == 0 && op.Due > e.cfg.Duration {
			break
		}
		due := t0.Add(op.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w := workers[hashKey(op.Key)%uint64(len(workers))]
		w.ch <- workItem{op: op, due: due}
		e.issued.Add(1)
	}
	for _, w := range workers {
		close(w.ch)
	}
	wg.Wait()
	var lastDone int64
	for _, w := range workers {
		if d := w.lastDone.Load(); d > lastDone {
			lastDone = d
		}
	}
	wall := time.Duration(lastDone - t0.UnixNano())
	if wall <= 0 {
		wall = time.Since(t0)
	}

	res := Result{
		Issued:      e.issued.Load(),
		Completed:   e.completed.Load(),
		Errors:      e.errors.Load(),
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Wall:        wall,
		OfferedRate: e.cfg.Workload.RatePerSec,
	}
	if wall > 0 {
		res.AchievedRate = float64(res.Completed) / wall.Seconds()
	}

	// Verify before closing the conns: each worker checks its own keys,
	// preserving the per-key ordering that makes "stale" provable.
	if e.cfg.Verify {
		var vmu sync.Mutex
		var vwg sync.WaitGroup
		for _, w := range workers {
			vwg.Add(1)
			go func(w *loadWorker) {
				defer vwg.Done()
				vk, missing := w.verify()
				vmu.Lock()
				res.VerifiedKeys += vk
				res.Missing += missing
				vmu.Unlock()
			}(w)
		}
		vwg.Wait()
	}
	res.Torn, res.Stale = e.torn.Load(), e.stale.Load()
	for _, w := range workers {
		if w.client != nil {
			w.client.Close()
		}
	}

	snap := e.reg.Snapshot()
	res.Get = summarize(snap.Histograms["kvload.get.latency"])
	res.Set = summarize(snap.Histograms["kvload.set.latency"])
	res.All = summarize(snap.Histograms["kvload.latency"])
	if e.cfg.SLOp99 > 0 && res.All.P99 > e.cfg.SLOp99 {
		res.SLOViolated = true
	}
	if e.cfg.SLOp999 > 0 && res.All.P999 > e.cfg.SLOp999 {
		res.SLOViolated = true
	}
	return res, nil
}

// run consumes the worker's queue until it closes.
func (w *loadWorker) run() {
	for item := range w.ch {
		w.execute(item)
	}
}

// redial replaces a broken connection; a handful of attempts with
// backoff rides out a server drain race or listen-queue blip.
func (w *loadWorker) redial() bool {
	if w.client != nil {
		w.client.conn.Close()
		w.client = nil
	}
	for attempt := 0; attempt < 5; attempt++ {
		time.Sleep(time.Duration(attempt*attempt) * 50 * time.Millisecond)
		c, err := Dial(w.addr, w.e.cfg.DialTimeout)
		if err == nil {
			w.client = c
			return true
		}
	}
	return false
}

func (w *loadWorker) execute(item workItem) {
	op := item.op
	if w.client == nil && !w.redial() {
		w.e.errors.Add(1)
		return
	}
	var err error
	if op.Read {
		var val []byte
		var ok bool
		val, _, ok, err = w.client.Get(op.Key)
		if err == nil {
			if ok {
				w.e.hits.Add(1)
				w.check(op.Key, val)
			} else {
				w.e.misses.Add(1)
			}
		}
	} else {
		if cap(w.valBuf) < op.ValueLen {
			w.valBuf = make([]byte, op.ValueLen)
		}
		val := MakeValue(w.valBuf[:op.ValueLen], op)
		w.issued[op.Key] = op.Seq
		err = w.client.Set(op.Key, uint32(op.Seq), val)
		if err == nil {
			w.acked[op.Key] = op.Seq
		}
	}
	lat := time.Since(item.due)
	if lat < 0 {
		lat = 0
	}
	if err != nil {
		w.e.errors.Add(1)
		// In-band rejections (SERVER_ERROR and friends, ErrRefused) leave
		// the conn framed and usable; anything else is a transport or
		// framing failure and needs a redial.
		if !errors.Is(err, ErrRefused) {
			w.redial()
		}
	} else {
		w.e.completed.Add(1)
		if op.Read {
			w.e.getLat.Observe(lat.Nanoseconds())
		} else {
			w.e.setLat.Observe(lat.Nanoseconds())
		}
		w.e.allLat.Observe(lat.Nanoseconds())
	}
	w.lastDone.Store(time.Now().UnixNano())
}

// check counts a get's value torn or stale. A key this worker has an
// acknowledged write for must answer a seq from the last acknowledged one
// to the last sent (a set whose ack was lost with its connection may still
// have landed); a key with none may hold anything intact, a value an
// earlier run left. A miss is legal: the store's budget evicts.
func (w *loadWorker) check(key string, val []byte) {
	seq, intact := ParseValue(val)
	ackSeq, acked := w.acked[key]
	switch {
	case !intact:
		w.e.torn.Add(1)
	case acked && (seq < ackSeq || seq > w.issued[key]):
		w.e.stale.Add(1)
	}
}

// verify re-reads every key this worker acknowledged a write for, checking
// each value as a get in the run is checked; a key that answers no value
// is missing.
func (w *loadWorker) verify() (checked, missing uint64) {
	if w.client == nil && !w.redial() {
		return 0, uint64(len(w.acked))
	}
	for key := range w.acked {
		val, _, ok, err := w.client.Get(key)
		if err != nil {
			if !w.redial() {
				missing += uint64(len(w.acked)) - checked
				return checked, missing
			}
			val, _, ok, err = w.client.Get(key)
			if err != nil {
				missing++
				checked++
				continue
			}
		}
		checked++
		if !ok {
			missing++
			continue
		}
		w.check(key, val)
	}
	return checked, missing
}
