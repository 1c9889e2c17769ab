package core

import "kona/internal/mem"

// pendingSet is one evict shard's set of pages with buffered (unshipped)
// eviction entries — the write-before-read check's memory. It is an
// open-addressed table plus the occupied slots in insertion order, built
// for what a Go map does badly here: emptying. A drain zeroes exactly the
// slots in use, so it costs the pages pending now; a map's iterate-and-
// clear costs the capacity the load phase once needed, on every cycle.
// The table grows to under 4x the pages pending at once. A drain leaving it
// over 16x both the pages it held and 1 024 (a load's burst is over) drops
// it, and add regrows it; a smaller table is kept, so Sync and
// write-before-read drains allocate nothing in steady state. Guarded by the
// shard's lock.
type pendingSet struct {
	// slots holds base|1 — page bases are aligned, zero means empty. The
	// length is a power of two; probing is linear.
	slots []mem.Addr
	order []uint32 // occupied slot indices, in insertion order
}

// slot returns where a is, or the empty slot where it would go.
func (s *pendingSet) slot(a mem.Addr) int {
	mask := len(s.slots) - 1
	i := int(a.Page()*0x9E3779B97F4A7C15>>32) & mask
	for s.slots[i] != a|1 && s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// add inserts a; a page already present keeps its place in the order.
func (s *pendingSet) add(a mem.Addr) {
	if 2*len(s.order) >= len(s.slots) { // keep the table under half full
		old := s.slots
		s.slots = make([]mem.Addr, max(2*len(old), 64))
		for j, i := range s.order {
			n := s.slot(old[i] &^ 1)
			s.slots[n], s.order[j] = old[i], uint32(n)
		}
	}
	if i := s.slot(a); s.slots[i] == 0 {
		s.slots[i] = a | 1
		s.order = append(s.order, uint32(i))
	}
}

// has reports whether a is in the set.
func (s *pendingSet) has(a mem.Addr) bool {
	return len(s.order) > 0 && s.slots[s.slot(a)] != 0
}

// drainInto appends the pages to dst in insertion order and empties the
// set, touching only the occupied slots.
func (s *pendingSet) drainInto(dst []mem.Addr) []mem.Addr {
	for _, i := range s.order {
		dst = append(dst, s.slots[i]&^1)
		s.slots[i] = 0
	}
	if len(s.slots) > 16*max(len(s.order), 1024) {
		*s = pendingSet{} // add regrows it to today's backlog
	} else {
		s.order = s.order[:0]
	}
	return dst
}
