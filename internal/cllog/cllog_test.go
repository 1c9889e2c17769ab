package cllog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"kona/internal/mem"
)

// lines returns n whole cache lines of byte b.
func lines(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n*mem.CacheLineSize) }

func TestPackUnpackRoundTrip(t *testing.T) {
	entries := []Entry{
		{RemoteOff: 0, Data: lines(1, 1)},
		{RemoteOff: 4096, Data: lines(2, 2)},
		{RemoteOff: 1 << 30, Data: lines(MaxLines, 9)},
		{RemoteOff: MaxRegion - 64, Data: lines(1, 7)}, // the last addressable line
	}
	buf := make([]byte, PackedSize(entries))
	n, err := Pack(entries, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("packed %d bytes, PackedSize said %d", n, len(buf))
	}
	var got []Entry
	cnt, err := Unpack(buf, func(e Entry) error {
		got = append(got, Entry{RemoteOff: e.RemoteOff, Data: append([]byte(nil), e.Data...)})
		return nil
	})
	if err != nil || cnt != len(entries) {
		t.Fatalf("unpack: cnt=%d err=%v", cnt, err)
	}
	for i := range entries {
		if got[i].RemoteOff != entries[i].RemoteOff || !bytes.Equal(got[i].Data, entries[i].Data) {
			t.Errorf("entry %d mismatch", i)
		}
	}
}

func TestEmptyLog(t *testing.T) {
	buf := make([]byte, PackedSize(nil))
	if n, err := Pack(nil, buf); err != nil || n != TerminatorSize {
		t.Fatalf("empty pack: %d %v", n, err)
	}
	cnt, err := Unpack(buf, func(Entry) error { t.Fatal("callback on empty log"); return nil })
	if err != nil || cnt != 0 {
		t.Errorf("empty unpack: %d %v", cnt, err)
	}
}

func TestEntrySize(t *testing.T) {
	if HeaderSize != 5 || TerminatorSize != 4 || EntrySize(64) != 69 {
		t.Fatalf("layout: header %d, terminator %d, one-line entry %d; want 5, 4, 69",
			HeaderSize, TerminatorSize, EntrySize(64))
	}
	entries := []Entry{{RemoteOff: 64, Data: lines(1, 1)}, {RemoteOff: 4096, Data: lines(3, 2)}}
	if got, want := PackedSize(entries), EntrySize(64)+EntrySize(192)+TerminatorSize; got != want {
		t.Errorf("PackedSize = %d, want %d", got, want)
	}
}

// TestPackErrors pins what the line-addressed layout cannot carry:
// each row is refused, never packed into a log that would unpack to
// different bytes.
func TestPackErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    Entry
	}{
		{"offset not line-aligned", Entry{RemoteOff: 10, Data: lines(1, 1)}},
		{"partial-line length", Entry{RemoteOff: 64, Data: make([]byte, 70)}},
		{"sub-line length", Entry{RemoteOff: 64, Data: []byte{1}}},
		{"empty entry", Entry{RemoteOff: 64}},
		{"more than 255 lines", Entry{RemoteOff: 0, Data: lines(MaxLines+1, 1)}},
		{"line index equal to the terminator", Entry{RemoteOff: MaxRegion, Data: lines(1, 1)}},
		{"line index past the terminator", Entry{RemoteOff: ^uint64(0) &^ 63, Data: lines(1, 1)}},
		{"run crossing the terminator", Entry{RemoteOff: MaxRegion - 64, Data: lines(2, 1)}},
	} {
		entries := []Entry{{RemoteOff: 0, Data: lines(1, 1)}, tc.e}
		if _, err := Pack(entries, make([]byte, 1<<16)); err == nil {
			t.Errorf("%s: packed", tc.name)
		}
	}
	if _, err := Pack([]Entry{{Data: lines(1, 1)}}, make([]byte, 10)); err == nil {
		t.Errorf("small buffer accepted")
	}
}

func TestUnpackTruncated(t *testing.T) {
	entries := []Entry{{RemoteOff: 640, Data: lines(1, 1)}}
	buf := make([]byte, PackedSize(entries))
	if _, err := Pack(entries, buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, HeaderSize - 1, HeaderSize, 50, len(buf) - 1} {
		if _, err := Unpack(buf[:cut], func(Entry) error { return nil }); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d: err=%v, want ErrTruncated", cut, err)
		}
	}
	// A count byte claiming more lines than the buffer holds.
	buf[4] = 2
	if _, err := Unpack(buf, func(Entry) error { t.Fatal("overrunning entry applied"); return nil }); !errors.Is(err, ErrTruncated) {
		t.Errorf("overrunning count: err=%v, want ErrTruncated", err)
	}
}

func TestUnpackCallbackError(t *testing.T) {
	entries := []Entry{{RemoteOff: 64, Data: lines(1, 1)}, {RemoteOff: 128, Data: lines(1, 2)}}
	buf := make([]byte, PackedSize(entries))
	if _, err := Pack(entries, buf); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	n, err := Unpack(buf, func(e Entry) error {
		if e.RemoteOff == 128 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 1 {
		t.Errorf("n=%d err=%v", n, err)
	}
}

// Property: pack→unpack is the identity for arbitrary entry sets.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count) % 32
		entries := make([]Entry, n)
		for i := range entries {
			d := make([]byte, (rng.Intn(MaxLines)+1)*mem.CacheLineSize)
			rng.Read(d)
			line := rng.Uint64() % (uint64(terminator) - MaxLines)
			entries[i] = Entry{RemoteOff: line * mem.CacheLineSize, Data: d}
		}
		buf := make([]byte, PackedSize(entries))
		if _, err := Pack(entries, buf); err != nil {
			return false
		}
		i := 0
		cnt, err := Unpack(buf, func(e Entry) error {
			if e.RemoteOff != entries[i].RemoteOff || !bytes.Equal(e.Data, entries[i].Data) {
				return errors.New("mismatch")
			}
			i++
			return nil
		})
		return err == nil && cnt == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUnpack exercises the decoder against arbitrary bytes: it must never
// panic and must account every reported entry within bounds.
func FuzzUnpack(f *testing.F) {
	entries := []Entry{{RemoteOff: 64, Data: lines(2, 's')}}
	buf := make([]byte, PackedSize(entries))
	if _, err := Pack(entries, buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Unpack(data, func(e Entry) error {
			if len(e.Data) > MaxLines*mem.CacheLineSize || len(e.Data)%mem.CacheLineSize != 0 ||
				e.RemoteOff%mem.CacheLineSize != 0 {
				t.Fatalf("entry [%d,+%d) is not whole lines", e.RemoteOff, len(e.Data))
			}
			return nil
		})
		if err == nil && n < 0 {
			t.Fatalf("negative entry count")
		}
	})
}

// TestEntryPoolConcurrent churns the package entry pool from many
// goroutines the way the sharded eviction path does — every evict shard
// and every per-node merge batch draws from the same pool — while each
// goroutine round-trips its own entries through Pack/Unpack. Under
// -race this pins that pooled slices are handed to exactly one holder
// at a time (double-delivery of one backing array would corrupt two
// nodes' logs at once).
func TestEntryPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				entries := GetEntries()
				for i := 0; i < 16; i++ {
					line := uint64(g)<<16 | uint64(iter)<<4 | uint64(i)
					entries = append(entries, Entry{
						RemoteOff: line * mem.CacheLineSize,
						Data:      lines(1, byte(g+1)),
					})
				}
				buf := make([]byte, PackedSize(entries))
				packed, err := Pack(entries, buf)
				if err != nil {
					t.Errorf("goroutine %d iter %d: pack: %v", g, iter, err)
					return
				}
				i := 0
				n, err := Unpack(buf[:packed], func(e Entry) error {
					want := entries[i]
					if e.RemoteOff != want.RemoteOff || !bytes.Equal(e.Data, want.Data) {
						return fmt.Errorf("entry %d mismatch (cross-goroutine corruption?)", i)
					}
					i++
					return nil
				})
				if err != nil || n != len(entries) {
					t.Errorf("goroutine %d iter %d: unpack n=%d err=%v", g, iter, n, err)
					return
				}
				PutEntries(entries)
			}
		}(g)
	}
	wg.Wait()
}
