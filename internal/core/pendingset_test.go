package core

import (
	"math/rand"
	"testing"

	"kona/internal/mem"
)

// TestPendingSetOrderDedupDrain: members drain in insertion order, once
// each however often they were added, across table growth; a drain leaves
// no member and no occupied slot behind (so its cost next time is the next
// backlog, not this one); page 0 is an ordinary member.
func TestPendingSetOrderDedupDrain(t *testing.T) {
	var s pendingSet
	if s.has(0) || len(s.drainInto(nil)) != 0 {
		t.Fatal("zero set is not empty")
	}
	rng := rand.New(rand.NewSource(7))
	for round, n := range []int{5000, 200, 1, 0, 300} { // high water first
		var want []mem.Addr
		seen := make(map[mem.Addr]bool)
		for len(want) < n {
			a := mem.PageBase(uint64(rng.Intn(4 * 5000)))
			if round == 1 && len(want) == 0 {
				a = 0
			}
			if !seen[a] {
				seen[a] = true
				want = append(want, a)
			}
			s.add(a)
			s.add(want[rng.Intn(len(want))]) // a re-add keeps its first position
		}
		for _, a := range want {
			if !s.has(a) {
				t.Fatalf("round %d: %v added but not a member", round, a)
			}
		}
		if absent := mem.PageBase(1 << 30); s.has(absent) {
			t.Fatalf("round %d: %v reported as a member", round, absent)
		}
		got := s.drainInto(nil)
		if len(got) != len(want) {
			t.Fatalf("round %d: drained %d pages, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: drained[%d] = %v, want %v (insertion order)", round, i, got[i], want[i])
			}
		}
		for i, v := range s.slots {
			if v != 0 {
				t.Fatalf("round %d: slot %d still occupied after a drain", round, i)
			}
		}
		if len(s.order) != 0 || (n > 0 && s.has(want[0])) {
			t.Fatalf("round %d: set not empty after a drain", round)
		}
	}
	// The table settled at the first round's size and never grew again.
	if want := 16384; len(s.slots) != want {
		t.Errorf("table has %d slots, want %d (twice the 5000-page high water, rounded up)", len(s.slots), want)
	}
}

// TestPendingSetShrinksAfterBurst: a table grown by a burst (a load's 64k
// pending pages, 1 MB of slots) is dropped by the first drain that holds a
// steady backlog's worth, and regrows to that backlog, so probes stop
// landing at random in 1 MB. Steady state then allocates nothing, including
// the Sync / write-before-read pattern of the benchmark's rt-page, where
// drains of about a thousand pages alternate with drains of a few dozen.
func TestPendingSetShrinksAfterBurst(t *testing.T) {
	var s pendingSet
	fill := func(n int, stride uint64) {
		for i := 0; i < n; i++ {
			s.add(mem.PageBase(uint64(i) * stride))
		}
	}
	fill(64<<10, 1)
	if got := len(s.drainInto(nil)); got != 64<<10 || len(s.slots) != 128<<10 {
		t.Fatalf("burst drained %d pages from %d slots, want %d from %d", got, len(s.slots), 64<<10, 128<<10)
	}
	fill(100, 7)
	if got := s.drainInto(nil); len(got) != 100 || got[99] != mem.PageBase(99*7) {
		t.Fatalf("drained %d pages after the burst, want the 100 added in order", len(got))
	}
	if len(s.slots) > 1024 || len(s.order) != 0 {
		t.Fatalf("table has %d slots (%d members) after a 100-page drain, want at most 1024 and none", len(s.slots), len(s.order))
	}
	dst := make([]mem.Addr, 0, 2048)
	for _, n := range []int{100, 1200} {
		fill(n, 3)
		dst = s.drainInto(dst[:0])
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for _, n := range []int{100, 1200, 40, 1100} {
			fill(n, 3)
			dst = s.drainInto(dst[:0])
		}
	}); allocs != 0 {
		t.Fatalf("steady add/drain loop allocates %.1f per pass, want 0", allocs)
	}
}
