package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"kona/internal/cluster"
	"kona/internal/fpga"
	"kona/internal/mem"
	"kona/internal/simclock"
)

// fakeLink is a nodeLink whose health and ship outcome a test dictates.
type fakeLink struct {
	node int
	ep   uint64

	mu      sync.Mutex
	down    bool  // healthy() answers false
	shipErr error // what shipLog returns; nil lands the log
	ships   int   // shipLog calls
	// onShip, when set, runs at the start of every shipLog, on the
	// shipping goroutine with flushMu held by the cycle.
	onShip func()
}

func (l *fakeLink) set(down bool, shipErr error) {
	l.mu.Lock()
	l.down, l.shipErr = down, shipErr
	l.mu.Unlock()
}

func (l *fakeLink) id() int     { return l.node }
func (l *fakeLink) key() uint64 { return linkKeyFor(l.node, l.ep) }
func (l *fakeLink) healthy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.down
}
func (l *fakeLink) readPage(now simclock.Duration, off uint64, buf []byte) (simclock.Duration, error) {
	return now, nil
}
func (l *fakeLink) readPages(now simclock.Duration, offs []uint64, bufs [][]byte) (simclock.Duration, error) {
	return now, nil
}
func (l *fakeLink) writePage(now simclock.Duration, off uint64, data []byte) (simclock.Duration, error) {
	return now, nil
}
func (l *fakeLink) shipLog(now simclock.Duration, packed [][]byte) (simclock.Duration, simclock.Duration, int, error) {
	if l.onShip != nil {
		l.onShip()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ships++
	if l.shipErr != nil {
		return now, now, 0, l.shipErr
	}
	return now + 1000, now + 1500, 1, nil
}
func (l *fakeLink) injectDelay(simclock.Duration) error { return nil }

// fakeLinks is a link factory of fakeLinks, one per node, whose test
// chooses which executor the evictor gets.
type fakeLinks struct {
	pipe bool

	mu    sync.Mutex
	links map[int]*fakeLink
}

func newFakeLinks(pipe bool) *fakeLinks {
	return &fakeLinks{pipe: pipe, links: make(map[int]*fakeLink)}
}

func (r *fakeLinks) pipelined() bool { return r.pipe }

func (r *fakeLinks) link(node int, epoch uint64) (nodeLink, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.links[node]
	if l == nil {
		l = &fakeLink{node: node, ep: epoch}
		r.links[node] = l
	}
	return l, nil
}

// reportCounter is a real controller that counts failure reports instead
// of acting on them.
type reportCounter struct {
	control
	reports atomic.Int64
}

func (c *reportCounter) ReportFailure(node int) (bool, error) {
	c.reports.Add(1)
	return false, nil
}

// shipOutcome is everything a flush cycle leaves behind for one faulty
// destination, as both executors must agree on it.
type shipOutcome struct {
	surfaced      string // "", "sealed", "lease-fenced" or "error"
	attempts      int    // shipLog calls on the faulty link
	heldEntries   int    // entries still in the faulty destination's batch
	reports       int    // failure reports to the controller
	state         memberState
	pendingMarked bool // the page is still marked pending (write-before-read)
	sealedRetains uint64
	leaseFenced   uint64
}

// TestShipOutcomeTable drives one flush per row through a fake link on
// the inline executor and on the pipelined one and requires the same
// outcome from both: what shipped, what stayed in the batch, what
// surfaced, what was reported (once per outage), the member's state, and
// whether the page stays pending. It then heals the link and requires the
// held entries to leave the batch only through an acknowledged ship.
func TestShipOutcomeTable(t *testing.T) {
	sealedErr := fmt.Errorf("memnode: write refused: %w", cluster.ErrSealed)
	fencedErr := fmt.Errorf("memnode: write refused: %w", cluster.ErrLeaseFenced)
	plainErr := errors.New("connection reset")

	type row struct {
		name    string
		down    bool
		shipErr error
		// want, by replication: index 0 unreplicated, 1 replicated.
		want [2]shipOutcome
	}
	const held = 2 // entries appended per destination (two dirty segments)
	rows := []row{
		{name: "healthy", want: [2]shipOutcome{
			{attempts: 1},
			{attempts: 1},
		}},
		{name: "unhealthy link", down: true, shipErr: plainErr, want: [2]shipOutcome{
			// Unreplicated: no other copy, so the ship is attempted and its
			// error surfaces; nothing is reported (wait-for-recovery).
			{surfaced: "error", attempts: 2, heldEntries: held, pendingMarked: true},
			// Replicated: withheld, retained, reported once.
			{attempts: 0, heldEntries: held, reports: 1, pendingMarked: true},
		}},
		{name: "sealed rejection", shipErr: sealedErr, want: [2]shipOutcome{
			{attempts: 2, heldEntries: held, state: memberSealed, pendingMarked: true, sealedRetains: 2},
			{attempts: 2, heldEntries: held, state: memberSealed, pendingMarked: true, sealedRetains: 2},
		}},
		{name: "lease-fenced rejection", shipErr: fencedErr, want: [2]shipOutcome{
			{surfaced: "lease-fenced", attempts: 2, heldEntries: held, pendingMarked: true, leaseFenced: 2},
			{surfaced: "lease-fenced", attempts: 2, heldEntries: held, pendingMarked: true, leaseFenced: 2},
		}},
		{name: "plain error", shipErr: plainErr, want: [2]shipOutcome{
			{surfaced: "error", attempts: 2, heldEntries: held, pendingMarked: true},
			{attempts: 2, heldEntries: held, reports: 1, pendingMarked: true},
		}},
	}

	run := func(t *testing.T, r row, replicas int, pipelined bool) shipOutcome {
		cfg := smallConfig()
		cfg.Replicas = replicas
		ctrl := &reportCounter{control: localControl{newCluster(2)}}
		rm := newResourceManager(cfg.withDefaults(), newFakeLinks(pipelined), ctrl)
		e := newEvictor(rm, cfg.withDefaults())
		if (e.sem != nil) != pipelined {
			t.Fatalf("executor: pipelined=%v, want %v", e.sem != nil, pipelined)
		}
		base, err := rm.Malloc(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := rm.groupFor(base)
		members := rm.replicas[s.ID].members
		faulty := members[len(members)-1] // the replica when replicated
		fl := faulty.link.(*fakeLink)
		fl.set(r.down, r.shipErr)

		var dirty mem.LineBitmap
		dirty.Set(1)
		dirty.Set(40)
		page := make([]byte, mem.PageSize)
		if _, err := e.EvictPage(0, fpga.Victim{Base: base, Data: page, Dirty: dirty}); err != nil {
			t.Fatal(err)
		}
		// Two cycles while the fault lasts: the outage must be reported
		// once, and nothing may leave the batch.
		var out shipOutcome
		for i := 0; i < 2; i++ {
			_, err = e.Flush(0)
		}
		switch {
		case err == nil:
		case errors.Is(err, cluster.ErrSealed):
			out.surfaced = "sealed"
		case errors.Is(err, cluster.ErrLeaseFenced):
			out.surfaced = "lease-fenced"
		default:
			out.surfaced = "error"
		}
		nb := e.nodes[fl.key()]
		sh := e.shardFor(base)
		out.pendingMarked = sh.pending.has(base)
		out.attempts = fl.ships
		out.heldEntries = len(nb.entries)
		out.reports = int(ctrl.reports.Load())
		out.state = faulty.state
		out.sealedRetains = e.sealedRetains.Load()
		out.leaseFenced = e.leaseFenced.Load()
		if p := nb.pendingBytes.Load(); (out.heldEntries == 0) != (p == 0) {
			t.Errorf("batch holds %d entries but %d pending bytes", out.heldEntries, p)
		}
		for _, m := range members[:len(members)-1] {
			if hl := m.link.(*fakeLink); hl.ships != 1 || len(e.nodes[hl.key()].entries) != 0 {
				t.Errorf("healthy replica: %d ships, %d entries held; want one ship, none held",
					hl.ships, len(e.nodes[hl.key()].entries))
			}
		}
		if e.stealing.Load() != 0 {
			t.Error("steal cycle left open")
		}

		// Heal: the held entries leave through one acknowledged ship.
		fl.set(false, nil)
		if _, err := e.Flush(0); err != nil {
			t.Fatalf("flush after heal: %v", err)
		}
		if n, p := len(nb.entries), nb.pendingBytes.Load(); n != 0 || p != 0 {
			t.Errorf("after heal the batch still holds %d entries / %d bytes", n, p)
		}
		if sh.pending.has(base) {
			t.Error("page still pending after a clean drain")
		}
		if got, want := fl.ships-out.attempts, min(out.heldEntries, 1); got != want {
			t.Errorf("heal took %d ships, want %d", got, want)
		}
		return out
	}

	for _, r := range rows {
		for replicas := 1; replicas <= 2; replicas++ {
			t.Run(fmt.Sprintf("%s/replicas=%d", r.name, replicas), func(t *testing.T) {
				inline := run(t, r, replicas, false)
				pipelined := run(t, r, replicas, true)
				if inline != pipelined {
					t.Errorf("executors disagree:\n inline    %+v\n pipelined %+v", inline, pipelined)
				}
				if want := r.want[replicas-1]; inline != want {
					t.Errorf("outcome %+v, want %+v", inline, want)
				}
			})
		}
	}
}
