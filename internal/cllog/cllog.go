// Package cllog defines Kona's cache-line log: the ring-buffer wire format
// (inspired by FaRM, §4.4) that the Eviction Handler uses to aggregate
// dirty cache lines — contiguous or not, even from different pages — into
// one large RDMA write, and that the Cache-line Log Receiver on the memory
// node unpacks back into place.
//
// Layout: a sequence of line-addressed entries, each
//
//	[4B line index][1B line count][count × 64 payload bytes]
//
// terminated by a 4-byte line index of all-ones. An entry is 1 to 255
// whole cache lines (an eviction entry is one run of a page's dirty
// bitmap, at most 64 lines); its byte offset is index × 64, so one log
// addresses a region of up to MaxRegion bytes — 2³² − 1 lines, 64 B short
// of 256 GiB. Pack refuses anything that is not whole lines, and Unpack
// hands back byte offsets and lengths, so callers speak bytes either way.
package cllog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"kona/internal/mem"
)

const (
	// HeaderSize is the per-entry header length.
	HeaderSize = 5
	// TerminatorSize is the end-of-log marker's length.
	TerminatorSize = 4
	// MaxLines is the most cache lines one entry carries.
	MaxLines = 0xFF
	// MaxRegion bounds the region a log addresses: every entry ends at or
	// below it.
	MaxRegion = uint64(terminator) * mem.CacheLineSize
)

// terminator is the reserved line index that ends a packed log.
const terminator = ^uint32(0)

// EntrySize is the packed size of an entry carrying n payload bytes.
func EntrySize(n int) int { return HeaderSize + n }

// Entry is one dirty segment destined for remote memory.
type Entry struct {
	// RemoteOff is the byte offset within the target memory region.
	RemoteOff uint64
	// Data is the segment payload.
	Data []byte
}

// ErrTruncated reports a log that ends mid-entry.
var ErrTruncated = errors.New("cllog: truncated log")

// entryPool recycles Entry slices across log-builder lifetimes. Eviction
// handlers keep one slice per destination node for their whole life, but
// the experiment engine constructs thousands of short-lived runtimes per
// sweep; pooling the slices keeps that churn off the garbage collector.
var entryPool = sync.Pool{New: func() any {
	s := make([]Entry, 0, 64)
	return &s
}}

// GetEntries returns an empty Entry slice from the package pool. Pair
// with PutEntries when the holder is done with it.
func GetEntries() []Entry { return (*(entryPool.Get().(*[]Entry)))[:0] }

// PutEntries returns a slice obtained from GetEntries to the pool. The
// caller must not retain the slice (or any payload aliases) afterwards.
func PutEntries(s []Entry) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	entryPool.Put(&s)
}

// PackedSize returns the buffer space entries require when packed.
func PackedSize(entries []Entry) int {
	n := TerminatorSize
	for _, e := range entries {
		n += EntrySize(len(e.Data))
	}
	return n
}

// Pack serializes entries into buf and returns the bytes used. It fails if
// buf is too small or an entry is not 1 to MaxLines whole cache lines
// ending within MaxRegion.
func Pack(entries []Entry, buf []byte) (int, error) {
	need := PackedSize(entries)
	if len(buf) < need {
		return 0, fmt.Errorf("cllog: buffer %d too small for %d bytes", len(buf), need)
	}
	off := 0
	for i, e := range entries {
		lines := len(e.Data) / mem.CacheLineSize
		switch {
		case lines == 0 || e.RemoteOff%mem.CacheLineSize != 0 || len(e.Data)%mem.CacheLineSize != 0:
			return 0, fmt.Errorf("cllog: entry %d [%d,+%d) is not whole cache lines", i, e.RemoteOff, len(e.Data))
		case lines > MaxLines:
			return 0, fmt.Errorf("cllog: entry %d spans %d lines, more than %d", i, lines, MaxLines)
		case e.RemoteOff > MaxRegion-uint64(len(e.Data)):
			return 0, fmt.Errorf("cllog: entry %d at %d ends past the log's %d-byte line-index limit", i, e.RemoteOff, MaxRegion)
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.RemoteOff/mem.CacheLineSize))
		buf[off+4] = byte(lines)
		copy(buf[off+HeaderSize:], e.Data)
		off += EntrySize(len(e.Data))
	}
	binary.LittleEndian.PutUint32(buf[off:], terminator)
	return off + TerminatorSize, nil
}

// Unpack parses a packed log, invoking apply for each entry in order. The
// callback receives the entry's byte offset and its payload aliased into
// buf; implementations must copy if they retain it. Unpack returns the
// number of entries.
func Unpack(buf []byte, apply func(Entry) error) (int, error) {
	off, n := 0, 0
	for {
		if off+TerminatorSize > len(buf) {
			return n, ErrTruncated
		}
		line := binary.LittleEndian.Uint32(buf[off:])
		if line == terminator {
			return n, nil
		}
		if off+HeaderSize > len(buf) {
			return n, ErrTruncated
		}
		end := off + EntrySize(int(buf[off+4])*mem.CacheLineSize)
		if end > len(buf) {
			return n, ErrTruncated
		}
		e := Entry{RemoteOff: uint64(line) * mem.CacheLineSize, Data: buf[off+HeaderSize : end]}
		if err := apply(e); err != nil {
			return n, err
		}
		off = end
		n++
	}
}
