package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"kona"
	"kona/internal/kv"
)

// syncOps is the harness's Sync cadence in ops. kvd syncs on a 100 ms
// timer, about this many ops at today's speed; counting ops instead
// keeps every count independent of wall-clock speed.
const syncOps = 4096

// workload is one benchmark input. Window sizes are multiples of the
// Sync cadence so every window holds the same number of Syncs.
type workload struct {
	name, why string
	// kv workloads
	keys     int
	valueMix []kv.SizeClass // value-length distribution
	// rt-page
	pages int
	// both
	readFrac  float64
	replicas  int
	windowOps int
	syncEvery int
	nodeBytes uint64 // capacity of each of the two memnodes
	// fetchMin/fetchMax bound core.fetches_per_op (0 = unchecked): a
	// mis-sized workload must fail loudly, not measure the wrong layer.
	fetchMin, fetchMax float64
}

var fixed512 = []kv.SizeClass{{Bytes: 512, Weight: 1}}

var workloads = []workload{
	{
		name: "kv-hot",
		why:  "8k x 512 B keys fit the 16 MB FMem: protocol, store and FMem-hit path do the work; remote fetches are refetch after Sync's FlushAll",
		keys: 8000, valueMix: fixed512, readFrac: 0.95, replicas: 1, windowOps: 3 * syncOps, syncEvery: syncOps, nodeBytes: 512 << 20, fetchMax: 0.5,
	},
	{
		name: "kv-cold",
		why:  "200k x 512 B keys are 12x the FMem: every get is one page fetch, so wire round trip and memnode service dominate",
		keys: 200000, valueMix: fixed512, readFrac: 0.95, replicas: 1, windowOps: 2 * syncOps, syncEvery: syncOps, nodeBytes: 512 << 20, fetchMin: 0.9,
	},
	{
		name: "kv-write",
		why:  "same 200k keys, 50% sets of 64 B-8 KB values: dirty tracking, heap, log pack, eviction ship, WriteLog and multi-page reads",
		keys: 200000, valueMix: kv.DefaultValueSizes(), readFrac: 0.5, replicas: 1, windowOps: 2 * syncOps, syncEvery: syncOps, nodeBytes: 512 << 20,
	},
	{
		name:  "rt-page",
		why:   "no kv layer: 4 KB reads and 64 B writes on the runtime over 64k pages with 2 replicas, the paper's page-fetch / line-writeback pattern",
		pages: 65536, readFrac: 0.7, replicas: 2, windowOps: 5 * syncOps, syncEvery: syncOps, nodeBytes: 512 << 20,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tally is what every driver counts: checked operations, failures, and
// the application bytes the amplification metrics divide by.
type tally struct {
	attempted, failed int
	// bytesRead is value bytes returned to the client (rt-page: bytes the
	// caller read); bytesWritten is value bytes accepted (bytes written).
	bytesRead, bytesWritten uint64
	firstFailure            string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// driver turns the seeded stream into calls on the stack and checks
// every reply: a wrong or refused reply is a failed op in the tally.
type driver interface {
	// load fills the data set (the timed part of set-up), calling tick
	// after every item so the reference kernel can be sampled among them.
	load(tick func(i int) error) error
	// op issues the next op of the stream, checks its reply, and reports
	// whether it was a read and how long the call took.
	op(mode winMode) (read bool, lat time.Duration)
	// sync makes remote memory current, as kvd's sync loop would.
	sync() error
	// verify re-reads the whole data set after a final Sync.
	verify() error
	counts() *tally
}

// kvDriver drives kv.Client over the one connection (or kv.Store
// directly in a modeDirect window) and knows the last value it set on
// every key.
type kvDriver struct {
	wl  workload
	c   *compute
	rec *recorder
	rng *rand.Rand
	t   tally

	keys    []string
	lastSeq []uint32
	lastLen []uint32
	sizeCum []float64
	valBuf  []byte
	getBuf  []byte
}

func newKVDriver(wl workload, c *compute, rec *recorder, seed int64) *kvDriver {
	d := &kvDriver{wl: wl, c: c, rec: rec, rng: rand.New(rand.NewSource(seed)),
		keys: make([]string, wl.keys), lastSeq: make([]uint32, wl.keys), lastLen: make([]uint32, wl.keys)}
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("key:%07d", i)
	}
	var maxLen int
	var cum float64
	for _, sc := range wl.valueMix {
		cum += sc.Weight
		d.sizeCum = append(d.sizeCum, cum)
		if sc.Bytes > maxLen {
			maxLen = sc.Bytes
		}
	}
	d.valBuf = make([]byte, maxLen)
	return d
}

func (d *kvDriver) counts() *tally { return &d.t }

func (d *kvDriver) valueLen() int {
	x := d.rng.Float64() * d.sizeCum[len(d.sizeCum)-1]
	for i, c := range d.sizeCum {
		if x <= c {
			return d.wl.valueMix[i].Bytes
		}
	}
	return d.wl.valueMix[len(d.wl.valueMix)-1].Bytes
}

// load sets every key once, straight on the store: the data set is the
// same as through the socket, several times faster, which is what lets
// one run repeat its set-up.
func (d *kvDriver) load(tick func(i int) error) error {
	for ki := range d.keys {
		d.set(modeDirect, ki)
		if err := tick(ki); err != nil {
			return err
		}
	}
	return d.sync()
}

func (d *kvDriver) sync() error {
	_, err := d.c.store.Sync(d.c.store.Clock())
	return err
}

func (d *kvDriver) op(mode winMode) (bool, time.Duration) {
	ki := d.rng.Intn(len(d.keys))
	if d.rng.Float64() < d.wl.readFrac {
		return true, d.get(mode, ki)
	}
	return false, d.set(mode, ki)
}

func (d *kvDriver) get(mode winMode, ki int) time.Duration {
	key := d.keys[ki]
	var (
		val []byte
		ok  bool
		err error
	)
	ref, traced := opSpan(d.rec, mode, subRead)
	start := time.Now()
	if mode == modeDirect {
		val, _, _, ok, err = d.c.store.Get(d.c.store.Clock(), key, d.getBuf)
		if ok {
			d.getBuf = val
		}
	} else {
		val, _, ok, err = d.c.client.Get(key)
	}
	lat := time.Since(start)
	if traced {
		d.rec.close(ref)
	}
	d.t.attempted++
	switch seq, intact := kv.ParseValue(val); {
	case err != nil:
		d.t.fail("get %s: %v", key, err)
	case !ok:
		d.t.fail("get %s: missing", key)
	case !intact || len(val) != int(d.lastLen[ki]):
		d.t.fail("get %s: torn value (%d bytes, want %d)", key, len(val), d.lastLen[ki])
	case seq != uint64(d.lastSeq[ki]):
		d.t.fail("get %s: seq %d, last set %d", key, seq, d.lastSeq[ki])
	default:
		d.t.bytesRead += uint64(len(val))
	}
	return lat
}

func (d *kvDriver) set(mode winMode, ki int) time.Duration {
	key := d.keys[ki]
	seq := d.lastSeq[ki] + 1
	val := kv.MakeValue(d.valBuf, kv.Op{Seq: uint64(seq), ValueLen: d.valueLen()})
	var err error
	ref, traced := opSpan(d.rec, mode, subWrite)
	start := time.Now()
	if mode == modeDirect {
		_, err = d.c.store.Set(d.c.store.Clock(), key, val, 0)
	} else {
		err = d.c.client.Set(key, 0, val)
	}
	lat := time.Since(start)
	if traced {
		d.rec.close(ref)
	}
	d.t.attempted++
	if err != nil {
		d.t.fail("set %s: %v", key, err)
		return lat
	}
	d.lastSeq[ki], d.lastLen[ki] = seq, uint32(len(val))
	d.t.bytesWritten += uint64(len(val))
	return lat
}

func (d *kvDriver) verify() error {
	if err := d.sync(); err != nil {
		return err
	}
	read := d.t.bytesRead
	for ki := range d.keys {
		d.get(modePlain, ki)
	}
	d.t.bytesRead = read // the verify pass is outside every ratio
	return nil
}

// pageDriver drives the runtime directly — one goroutine, page-granular
// reads, line-granular writes — against a host mirror of every byte.
type pageDriver struct {
	wl  workload
	c   *compute
	rec *recorder
	rng *rand.Rand
	t   tally

	seed   int64
	now    kona.Time
	chunks []kona.Addr
	mirror []byte
	page   []byte
	line   [kona.CacheLineSize]byte
}

// chunkPages is the Malloc granularity of the page set: 8 MB.
const chunkPages = 2048

func newPageDriver(wl workload, c *compute, rec *recorder, seed int64) *pageDriver {
	return &pageDriver{wl: wl, c: c, rec: rec, seed: seed, rng: rand.New(rand.NewSource(seed)),
		mirror: make([]byte, wl.pages*kona.PageSize), page: make([]byte, kona.PageSize)}
}

func (d *pageDriver) counts() *tally { return &d.t }

func (d *pageDriver) addr(page int) kona.Addr {
	return d.chunks[page/chunkPages] + kona.Addr(page%chunkPages*kona.PageSize)
}

func (d *pageDriver) load(tick func(i int) error) error {
	fill := rand.New(rand.NewSource(d.seed ^ 0x5eed))
	fill.Read(d.mirror)
	for p := 0; p < d.wl.pages; p++ {
		if p%chunkPages == 0 {
			base, err := d.c.rt.Malloc(uint64(min(chunkPages, d.wl.pages-p)) * kona.PageSize)
			if err != nil {
				return fmt.Errorf("malloc: %w", err)
			}
			d.chunks = append(d.chunks, base)
		}
		done, err := d.c.rt.Write(d.now, d.addr(p), d.mirror[p*kona.PageSize:(p+1)*kona.PageSize])
		d.t.attempted++
		if err != nil {
			d.t.fail("load page %d: %v", p, err)
		}
		d.now = done
		if err := tick(p); err != nil {
			return err
		}
	}
	return d.sync()
}

func (d *pageDriver) sync() error {
	done, err := d.c.rt.Sync(d.now)
	d.now = done
	return err
}

func (d *pageDriver) op(mode winMode) (bool, time.Duration) {
	p := d.rng.Intn(d.wl.pages)
	if d.rng.Float64() < d.wl.readFrac {
		return true, d.readPage(mode, p)
	}
	return false, d.writeLine(mode, p, d.rng.Intn(kona.PageSize/kona.CacheLineSize)*kona.CacheLineSize)
}

func (d *pageDriver) writeLine(mode winMode, p, off int) time.Duration {
	d.rng.Read(d.line[:])
	ref, traced := opSpan(d.rec, mode, subWrite)
	start := time.Now()
	done, err := d.c.rt.Write(d.now, d.addr(p)+kona.Addr(off), d.line[:])
	lat := time.Since(start)
	if traced {
		d.rec.close(ref)
	}
	d.now = done
	d.t.attempted++
	if err != nil {
		d.t.fail("write page %d+%d: %v", p, off, err)
		return lat
	}
	copy(d.mirror[p*kona.PageSize+off:], d.line[:])
	d.t.bytesWritten += kona.CacheLineSize
	return lat
}

func (d *pageDriver) readPage(mode winMode, p int) time.Duration {
	ref, traced := opSpan(d.rec, mode, subRead)
	start := time.Now()
	done, err := d.c.rt.Read(d.now, d.addr(p), d.page)
	lat := time.Since(start)
	if traced {
		d.rec.close(ref)
	}
	d.now = done
	d.t.attempted++
	switch {
	case err != nil:
		d.t.fail("read page %d: %v", p, err)
	case !bytes.Equal(d.page, d.mirror[p*kona.PageSize:(p+1)*kona.PageSize]):
		d.t.fail("read page %d: differs from the host mirror", p)
	default:
		d.t.bytesRead += kona.PageSize
	}
	return lat
}

func (d *pageDriver) verify() error {
	if err := d.sync(); err != nil {
		return err
	}
	read := d.t.bytesRead
	for p := 0; p < d.wl.pages; p++ {
		d.readPage(modePlain, p)
	}
	d.t.bytesRead = read
	return nil
}
