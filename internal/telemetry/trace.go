package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// Event is one annotated runtime occurrence: a remote fetch, an eviction
// batch flush, a transport retry, a replica failover. Events carry both a
// wall-clock stamp (always) and an optional virtual-time stamp for
// components running on the simulated clock (simclock.Duration aliases
// time.Duration, so no simclock import is needed here).
type Event struct {
	// Seq is the global emission ordinal; gaps after wraparound reveal
	// how many events the bounded ring dropped.
	Seq  uint64    `json:"seq"`
	Wall time.Time `json:"wall"`
	// Virtual is the emitting component's simulated clock, in
	// nanoseconds; 0 for wall-clock-only components.
	Virtual time.Duration `json:"virtual_ns,omitempty"`
	Name    string        `json:"name"`
	Detail  string        `json:"detail,omitempty"`

	// An event emitted with EmitAt keeps its detail as a format and
	// integers; Events renders it into Detail when someone reads the ring.
	nargs int
	args  [maxEventArgs]uint64
}

// maxEventArgs is how many integers an EmitAt detail can carry.
const maxEventArgs = 3

// Trace is a bounded ring of Events. Writers never block readers for
// long: Emit takes one short mutex hold (events are orders of magnitude
// rarer than counter increments, so a lock is the right trade against
// the complexity of a lock-free ring). All methods are nil-safe.
type Trace struct {
	mu   sync.Mutex
	buf  []Event
	next int    // buf index the next event lands in
	seq  uint64 // total events ever emitted
}

// NewTrace returns an empty ring holding up to capacity events (<= 0
// uses 1024).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Trace{buf: make([]Event, 0, capacity)}
}

// Emit records a wall-clock-stamped event whose detail is already text —
// for the rare events that carry an error or an address. Safe on a nil
// receiver.
func (t *Trace) Emit(name, detail string) { t.emit(Event{Name: name, Detail: detail}) }

// EmitAt records an event carrying the emitting component's virtual
// timestamp (0 for none) and a detail of up to maxEventArgs integers —
// page addresses, node ids, counts — under a fmt format with one verb per
// integer. Nothing is formatted here: per-fetch and per-flush emitters
// pay for a struct copy, and Events renders the text on read. Safe on a
// nil receiver.
func (t *Trace) EmitAt(virtual time.Duration, name, format string, args ...uint64) {
	if t == nil {
		return
	}
	e := Event{Virtual: virtual, Name: name, Detail: format}
	e.nargs = copy(e.args[:], args)
	t.emit(e)
}

func (t *Trace) emit(e Event) {
	if t == nil {
		return
	}
	e.Wall = time.Now()
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.mu.Unlock()
}

// Events returns the retained events oldest-first. Safe on a nil
// receiver (returns nil).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
	}
	out = append(out, t.buf[:t.next]...)
	for i := range out {
		if e := &out[i]; e.nargs > 0 {
			args := make([]any, e.nargs)
			for j := range args {
				args[j] = e.args[j]
			}
			e.Detail = fmt.Sprintf(e.Detail, args...)
			e.nargs = 0
		}
	}
	return out
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns the number of events ever emitted (retained + dropped).
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
