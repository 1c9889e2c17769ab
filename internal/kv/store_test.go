package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kona/internal/cluster"
	"kona/internal/core"
	"kona/internal/mem"
	"kona/internal/telemetry"
)

// simRuntime builds a Kona runtime over an in-process simulated rack,
// sized so the value heap overflows the local cache and every test
// exercises the fetch/dirty-track/evict path for real.
func simRuntime(t testing.TB, cacheBytes uint64) *core.Kona {
	t.Helper()
	ctrl := cluster.NewController()
	for i := 0; i < 2; i++ {
		if err := ctrl.Register(cluster.NewMemoryNode(i, 256<<20)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.DefaultConfig(cacheBytes)
	return core.NewKona(cfg, ctrl)
}

func TestStoreSetGetDelete(t *testing.T) {
	s := NewStore(simRuntime(t, 1<<20), Config{Shards: 4})
	// Miss before any write.
	_, _, _, ok, err := s.Get(0, "absent", nil)
	if err != nil || ok {
		t.Fatalf("get absent = ok %t err %v", ok, err)
	}

	tnow, err := s.Set(0, "alpha", []byte("first value"), 42)
	if err != nil {
		t.Fatal(err)
	}
	val, flags, tnow, ok, err := s.Get(tnow, "alpha", nil)
	if err != nil || !ok {
		t.Fatalf("get alpha = ok %t err %v", ok, err)
	}
	if string(val) != "first value" || flags != 42 {
		t.Fatalf("got %q flags %d", val, flags)
	}

	// Overwrite changes value and flags, recycles the old block.
	if tnow, err = s.Set(tnow, "alpha", []byte("second value, longer than before"), 7); err != nil {
		t.Fatal(err)
	}
	val, flags, tnow, ok, err = s.Get(tnow, "alpha", val)
	if err != nil || !ok || string(val) != "second value, longer than before" || flags != 7 {
		t.Fatalf("after overwrite: %q flags %d ok %t err %v", val, flags, ok, err)
	}

	// Delete, then miss.
	if _, ok, err = s.Delete(tnow, "alpha"); err != nil || !ok {
		t.Fatalf("delete = ok %t err %v", ok, err)
	}
	if _, ok, err = s.Delete(tnow, "alpha"); err != nil || ok {
		t.Fatalf("double delete = ok %t err %v", ok, err)
	}
	if _, _, _, ok, _ = s.Get(tnow, "alpha", nil); ok {
		t.Fatal("get after delete still answers")
	}

	st := s.Stats()
	if st.Keys != 0 || st.Sets != 2 || st.Deletes != 1 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreChurnAgainstMirror runs a randomized set/get/delete stream
// with the value heap many times the local cache, comparing every
// answer to an in-memory mirror — the store-level analogue of the
// runtime's model tests.
func TestStoreChurnAgainstMirror(t *testing.T) {
	reg := telemetry.New(0)
	rt := simRuntime(t, 64*mem.PageSize) // tiny cache: constant eviction
	s := NewStore(rt, Config{Shards: 8, Metrics: reg})
	mirror := map[string]string{}
	rng := rand.New(rand.NewSource(11))
	tnow := s.Clock()

	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for i := 0; i < steps; i++ {
		key := fmt.Sprintf("user:%d", rng.Intn(700))
		switch op := rng.Intn(10); {
		case op < 5: // set
			val := fmt.Sprintf("%s#%d#%s", key, i, randomPayload(rng, 16+rng.Intn(900)))
			var err error
			if tnow, err = s.Set(tnow, key, []byte(val), uint32(i)); err != nil {
				t.Fatalf("step %d set: %v", i, err)
			}
			mirror[key] = val
		case op < 9: // get
			val, _, tn, ok, err := s.Get(tnow, key, nil)
			if err != nil {
				t.Fatalf("step %d get: %v", i, err)
			}
			tnow = tn
			want, present := mirror[key]
			if ok != present || (ok && string(val) != want) {
				t.Fatalf("step %d: get %q = (%q, %t), mirror (%q, %t)", i, key, val, ok, want, present)
			}
		default: // delete
			_, ok, err := s.Delete(tnow, key)
			if err != nil {
				t.Fatalf("step %d delete: %v", i, err)
			}
			if _, present := mirror[key]; ok != present {
				t.Fatalf("step %d: delete %q = %t, mirror %t", i, key, ok, present)
			}
			delete(mirror, key)
		}
	}

	// Final sweep: every mirrored key answers, byte-exact.
	for key, want := range mirror {
		val, _, tn, ok, err := s.Get(tnow, key, nil)
		if err != nil || !ok || string(val) != want {
			t.Fatalf("final %q = (%q, %t, %v)", key, val, ok, err)
		}
		tnow = tn
	}
	if st := s.Stats(); st.Corrupt != 0 || st.Keys != uint64(len(mirror)) {
		t.Fatalf("stats = %+v, mirror %d keys", st, len(mirror))
	}
	// The runtime must have seen real eviction traffic (values >> cache).
	if est := rt.EvictStats(); est.PagesEvicted == 0 {
		t.Fatalf("no eviction traffic: %+v — values are not living remotely", est)
	}
}

func randomPayload(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func TestStoreBudgetEviction(t *testing.T) {
	reg := telemetry.New(0)
	// One shard so the budget applies to a single LRU; 64KB budget.
	s := NewStore(simRuntime(t, 1<<20), Config{Shards: 1, MaxBytes: 64 << 10, Metrics: reg})
	var tnow = s.Clock()
	var err error
	// 256 keys x 512B values ≈ 2x the budget: the tail must be evicted.
	for i := 0; i < 256; i++ {
		if tnow, err = s.Set(tnow, fmt.Sprintf("k%03d", i), make([]byte, 512), 0); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no LRU evictions under budget pressure: %+v", st)
	}
	if st.LiveBytes > 64<<10 {
		t.Fatalf("live bytes %d exceed the 64KB budget", st.LiveBytes)
	}
	if st.Keys == 0 {
		t.Fatal("budget eviction emptied the store")
	}
	// The newest key survived; the oldest was evicted.
	if _, _, _, ok, _ := s.Get(tnow, "k255", nil); !ok {
		t.Fatal("most recent key evicted")
	}
	if _, _, _, ok, _ := s.Get(tnow, "k000", nil); ok {
		t.Fatal("oldest key survived a 2x-budget overrun")
	}
	if got := reg.Snapshot().Counters["kv.evictions"]; got != st.Evictions {
		t.Fatalf("telemetry evictions %d != stats %d", got, st.Evictions)
	}
}

// TestStoreOverwriteKeepsLRUElement: an overwrite — through either key
// form — moves the key's one LRU element to the front instead of
// replacing it, so the list stays one element per key and the
// overwritten key outlives older untouched ones under budget pressure.
func TestStoreOverwriteKeepsLRUElement(t *testing.T) {
	s := NewStore(simRuntime(t, 1<<20), Config{Shards: 1, MaxBytes: 64 << 10})
	tnow := s.Clock()
	var err error
	val := make([]byte, 512)
	set := func(i int) {
		t.Helper()
		key := fmt.Sprintf("k%03d", i)
		if i%2 == 0 {
			tnow, err = s.Set(tnow, key, val, 0)
		} else {
			tnow, err = s.SetBytes(tnow, []byte(key), val, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		set(i)
	}
	set(0) // overwrite the two oldest keys, one through each form
	set(1)
	sh := s.shards[0]
	if got := sh.lru.Len(); got != 40 || len(sh.idx) != 40 {
		t.Fatalf("after overwrites: %d LRU elements, %d keys, want 40 of each", got, len(sh.idx))
	}
	if front := sh.lru.Front().Value.(string); front != "k001" {
		t.Fatalf("LRU front is %q, want the key just overwritten", front)
	}
	for i := 40; i < 70; i++ { // a few keys past the budget
		set(i)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions; the test proves nothing")
	}
	_, _, _, ok0, _ := s.Get(tnow, "k000", nil)
	_, _, _, ok1, _ := s.GetBytes(tnow, []byte("k001"), nil)
	_, _, _, ok2, _ := s.Get(tnow, "k002", nil)
	if !ok0 || !ok1 || ok2 {
		t.Fatalf("survivors k000=%t k001=%t k002=%t, want the overwritten keys to outlive k002", ok0, ok1, ok2)
	}
	if got := sh.lru.Len(); got != len(sh.idx) {
		t.Fatalf("%d LRU elements for %d keys", got, len(sh.idx))
	}
}

// TestStoreCorruptDetection plants corruption in the remote record and
// checks Get surfaces ErrCorrupt (and quarantines the entry) instead of
// returning wrong bytes.
func TestStoreCorruptDetection(t *testing.T) {
	rt := simRuntime(t, 1<<20)
	s := NewStore(rt, Config{Shards: 1})
	tnow, err := s.Set(0, "victim", []byte("precious payload"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reach under the index for the record address and flip value bytes
	// through the runtime, simulating a torn or misdirected write.
	sh := s.shardFor("victim")
	e := sh.idx["victim"]
	if tnow, err = rt.Write(tnow, e.addr+headerSize+6, []byte("XXXX")); err != nil {
		t.Fatal(err)
	}
	_, _, _, ok, err := s.Get(tnow, "victim", nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("get corrupt record = ok %t err %v, want ErrCorrupt", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Keys != 0 {
		t.Fatalf("stats after corruption = %+v", st)
	}
	// The slot is gone; a re-set repopulates cleanly.
	if tnow, err = s.Set(tnow, "victim", []byte("fresh"), 0); err != nil {
		t.Fatal(err)
	}
	val, _, _, ok, err := s.Get(tnow, "victim", nil)
	if err != nil || !ok || string(val) != "fresh" {
		t.Fatalf("repopulate = %q %t %v", val, ok, err)
	}
}

// TestStoreConcurrent hammers the store from several goroutines over
// overlapping keys — meaningful under -race (make stress).
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(simRuntime(t, 64*mem.PageSize), Config{Shards: 8})
	const workers = 4
	steps := 1200
	if testing.Short() {
		steps = 300
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			tnow := s.Clock()
			for i := 0; i < steps; i++ {
				key := fmt.Sprintf("shared:%d", rng.Intn(200))
				if rng.Intn(3) == 0 {
					var err error
					if tnow, err = s.Set(tnow, key, []byte(key+"-payload-counter"), 0); err != nil {
						errs <- err
						return
					}
				} else {
					_, _, tn, _, err := s.Get(tnow, key, nil)
					if err != nil {
						errs <- err
						return
					}
					tnow = tn
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent churn produced corrupt reads: %+v", st)
	}
}
