package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kona/internal/kv"
	"kona/internal/mem"
	"kona/internal/simclock"
)

// Tracing lives entirely in the benchmark's own files: spans are taken
// around the calls into each layer, never inside the program.
//
//	op         the harness, around one client call (kv.Client.Get/Set
//	           over the socket, or Runtime.Read/Write for rt-page)
//	store      the harness, around one direct Store.Get/Set (the
//	           sub-pass that splits the socket hop from the store)
//	rt         a decorator around the kv.Runtime handed to NewStore
//	residence  a net.Listener wrapper under each memnode and the
//	           controller: request first byte read -> server back at the
//	           next frame boundary, i.e. reply written
//
// With one P and one serial client these nest and partition wall time.

// winMode says how a window's ops are driven and whether spans are kept.
type winMode uint8

const (
	modePlain  winMode = iota // the shipped path, recorder off
	modeTraced                // the shipped path, recorder on
	modeDirect                // kv only: Store called in-process, recorder on
)

type spanKind uint8

const (
	spanOp spanKind = iota
	spanStore
	spanRT
	spanResidence
)

var spanKindNames = []string{"op", "store", "rt", "residence"}

// Sub-kinds. Op and store spans are reads or writes; rt spans add sync;
// rtNone marks a residence span with no runtime call around it.
const (
	subRead = iota
	subWrite
	subSync
	rtNone
)

// RPC classes a residence span falls in. The wire's kind bytes are
// private to internal/cluster, so the idle-rack probe learns the mapping
// by issuing one known RPC at a time (probe.go).
const (
	classRead = iota
	classReadPages
	classWriteLog
	classCtrl
	classOther
	nClass
)

var classNames = [nClass]string{"read", "readpages", "writelog", "ctrl", "other"}

// spanSums are one window's span totals, the only thing the budget
// arithmetic needs.
type spanSums struct {
	// opT/opN: op spans (store spans in a direct window) by read/write;
	// rtInOp is the runtime time nested inside them.
	opT, rtInOp [2]time.Duration
	opN         [2]int
	// rtT/rtN: runtime calls by read/write/sync.
	rtT [3]time.Duration
	rtN [3]int
	// resT/resN: residence by enclosing runtime call and RPC class.
	resT [4][nClass]time.Duration
	resN [4][nClass]int
}

// rawSpan is one record of the trace file.
type rawSpan struct {
	parent     int32
	op         uint32
	kind, sub  uint8
	start, end int64 // ns since the recorder's epoch
}

// maxRawSpans bounds the trace file (24 B a span in memory, ~40 B on
// disk); past it only the sums continue and the file says how many
// spans it dropped.
const maxRawSpans = 1 << 18

// recorder keeps spans in memory. The harness, the runtime decorator
// and the server goroutines behind the listener wrappers all report to
// it; mu orders them (they run on one P, so it is never contended).
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	spans   []rawSpan
	dropped int
	opID    uint32
	// stack of open spans: the op or store span, then the rt span.
	openOuter, openRT int32
	outerSub, rtSub   uint8
	sums              spanSums
	// classOf maps a wire kind byte to an RPC class; learn, when set,
	// assigns the next kind byte seen to that class.
	classOf [256]uint8
	learn   int
}

type spanRef struct {
	idx   int32
	kind  spanKind
	start time.Time
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]rawSpan, 0, maxRawSpans),
		openOuter: -1, openRT: -1, outerSub: rtNone, rtSub: rtNone, learn: -1}
	for i := range r.classOf {
		r.classOf[i] = classOther
	}
	return r
}

// resetSums starts a window's accounting.
func (r *recorder) resetSums() {
	r.mu.Lock()
	r.sums = spanSums{}
	r.mu.Unlock()
}

func (r *recorder) takeSums() spanSums {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sums
}

func (r *recorder) appendLocked(s rawSpan) int32 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// opSpan opens the span around one driver call when the window is
// traced: an op span on the shipped path, a store span on the direct one.
func opSpan(rec *recorder, mode winMode, sub uint8) (spanRef, bool) {
	if rec == nil || !rec.on.Load() {
		return spanRef{}, false
	}
	kind := spanOp
	if mode == modeDirect {
		kind = spanStore
	}
	return rec.open(kind, sub), true
}

// open starts an op, store or rt span; close must follow on the same
// goroutine. An op or store span starts a new request: the spans under
// it share its identifier.
func (r *recorder) open(kind spanKind, sub uint8) spanRef {
	start := time.Now()
	r.mu.Lock()
	if kind != spanRT {
		r.opID++
	}
	s := rawSpan{parent: -1, op: r.opID, kind: uint8(kind), sub: sub, start: int64(start.Sub(r.epoch))}
	if kind == spanRT {
		s.parent = r.openOuter
	}
	idx := r.appendLocked(s)
	if kind == spanRT {
		r.openRT, r.rtSub = idx, sub
	} else {
		r.openOuter, r.outerSub = idx, sub
	}
	r.mu.Unlock()
	return spanRef{idx: idx, kind: kind, start: start}
}

func (r *recorder) close(ref spanRef) {
	end := time.Now()
	d := end.Sub(ref.start)
	r.mu.Lock()
	if ref.idx >= 0 {
		r.spans[ref.idx].end = int64(end.Sub(r.epoch))
	}
	if ref.kind == spanRT {
		r.sums.rtT[r.rtSub] += d
		r.sums.rtN[r.rtSub]++
		if r.outerSub != rtNone {
			r.sums.rtInOp[r.outerSub] += d
		}
		r.openRT, r.rtSub = -1, rtNone
	} else {
		r.sums.opT[r.outerSub] += d
		r.sums.opN[r.outerSub]++
		r.openOuter, r.outerSub = -1, rtNone
	}
	r.mu.Unlock()
}

// setLearn makes the recorder file the kind bytes it sees next under
// class (-1 stops): the probe issues one known RPC kind at a time.
func (r *recorder) setLearn(class int) {
	r.mu.Lock()
	r.learn = class
	r.mu.Unlock()
}

// residence records one server-side span, attributed to whatever
// runtime call is open on the compute side. class < 0 means a memnode:
// look the wire kind byte up.
func (r *recorder) residence(kindByte byte, class int, start, end time.Time) {
	r.mu.Lock()
	if class < 0 {
		if r.learn >= 0 {
			r.classOf[kindByte] = uint8(r.learn)
		}
		class = int(r.classOf[kindByte])
	}
	parent := r.openRT
	if parent < 0 {
		parent = r.openOuter
	}
	r.appendLocked(rawSpan{parent: parent, op: r.opID, kind: uint8(spanResidence), sub: uint8(class),
		start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))})
	r.sums.resT[r.rtSub][class] += end.Sub(start)
	r.sums.resN[r.rtSub][class]++
	r.mu.Unlock()
}

// writeFile dumps the spans kept in memory as one JSON document.
func (r *recorder) writeFile(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	r.mu.Lock()
	head, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "time_unit": "ns", "dropped": r.dropped,
		"kinds": spanKindNames, "rt_subs": []string{"read", "write", "sync"}, "residence_subs": classNames,
		"fields": []string{"id", "parent", "op", "kind", "sub", "start", "end"},
	})
	if err != nil {
		r.mu.Unlock()
		f.Close()
		return err
	}
	w.Write(head[:len(head)-1]) // reopen the object for the spans
	w.WriteString(`,"spans":[`)
	var line []byte
	for i, s := range r.spans {
		line = line[:0]
		if i > 0 {
			line = append(line, ',')
		}
		line = append(line, "\n["...)
		for j, v := range [...]int64{int64(i), int64(s.parent), int64(s.op), int64(s.kind), int64(s.sub), s.start, s.end} {
			if j > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, ']')
		w.Write(line)
	}
	r.mu.Unlock()
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRuntime is the timing decorator around the runtime handed to
// kv.NewStore (and driven directly by rt-page).
type tracedRuntime struct {
	kv.Runtime
	rec *recorder
}

func (t *tracedRuntime) Read(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	if !t.rec.on.Load() {
		return t.Runtime.Read(now, addr, buf)
	}
	ref := t.rec.open(spanRT, subRead)
	done, err := t.Runtime.Read(now, addr, buf)
	t.rec.close(ref)
	return done, err
}

func (t *tracedRuntime) Write(now simclock.Duration, addr mem.Addr, buf []byte) (simclock.Duration, error) {
	if !t.rec.on.Load() {
		return t.Runtime.Write(now, addr, buf)
	}
	ref := t.rec.open(spanRT, subWrite)
	done, err := t.Runtime.Write(now, addr, buf)
	t.rec.close(ref)
	return done, err
}

func (t *tracedRuntime) Sync(now simclock.Duration) (simclock.Duration, error) {
	if !t.rec.on.Load() {
		return t.Runtime.Sync(now)
	}
	ref := t.rec.open(spanRT, subSync)
	done, err := t.Runtime.Sync(now)
	t.rec.close(ref)
	return done, err
}

// spanListener wraps a daemon's listener so each accepted connection
// stamps request residence.
type spanListener struct {
	net.Listener
	rec *recorder
	// class is the RPC class of everything this daemon serves, or -1 to
	// classify by wire kind byte.
	class int
}

func (l spanListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c, nil
	}
	return &spanConn{TCPConn: tc, rec: l.rec, class: l.class}, nil
}

// spanConn follows the kw v2 framing (12-byte prefix carrying the kind
// byte, header length and payload length) from the bytes the server
// reads. Residence starts when the first bytes of a request have been
// read and ends when, the whole request consumed, the server calls Read
// again for the next prefix — by then it has written the reply.
//
// It embeds *net.TCPConn and overrides only Read, so the server's reply
// still leaves as one writev exactly as it does untraced.
type spanConn struct {
	*net.TCPConn
	rec   *recorder
	class int

	pre      [12]byte
	preLen   int
	need     int // request bytes still to come after the prefix
	inFlight bool
	timed    bool
	start    time.Time
}

const wirePrefixLen = 12

func (c *spanConn) Read(p []byte) (int, error) {
	if c.inFlight && c.preLen == wirePrefixLen && c.need == 0 {
		if c.timed {
			c.rec.residence(c.pre[3], c.class, c.start, time.Now())
		}
		c.inFlight, c.preLen = false, 0
	}
	n, err := c.TCPConn.Read(p)
	if n == 0 {
		return n, err
	}
	if !c.inFlight {
		c.inFlight = true
		c.timed = c.rec.on.Load()
		if c.timed {
			c.start = time.Now()
		}
	}
	got := p[:n]
	if c.preLen < wirePrefixLen {
		k := copy(c.pre[c.preLen:], got)
		c.preLen += k
		got = got[k:]
		if c.preLen == wirePrefixLen {
			c.need = int(binary.BigEndian.Uint32(c.pre[4:8])) + int(binary.BigEndian.Uint32(c.pre[8:12]))
		}
	}
	c.need -= len(got)
	return n, err
}
