package cluster

import (
	"encoding/binary"
	"fmt"

	"kona/internal/mem"
	"kona/internal/slab"
)

// Hand-rolled fixed-layout binary codec for the Request/Response
// envelopes (DESIGN.md §11). The previous wire format gob-encoded both
// structs, which cost an encoder allocation, a reflective walk, and —
// decisive for the data path — a full copy of every payload byte into
// the encode buffer and back out of the decode buffer. Here the header
// fields are serialized into a small fixed-order layout and the payload
// (Request.Data / Response.Data) never passes through the codec at all:
// frame.go ships it as separate writev iovecs and reads it straight into
// its destination buffer.
//
// Every field is always present, in a fixed order, so the decoder is a
// straight-line read with no per-message schema. Integers that are `int`
// in the structs travel as their two's-complement int64 bit pattern —
// lossless for any value. Strings and slices are length-prefixed; a
// count of zero decodes to nil (matching what gob produced for empty
// values, which keeps round-trip comparisons and existing tests exact).

// --- append-style encoders ---------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendInt encodes an int as its int64 bit pattern (lossless for
// negative values, unlike a plain unsigned truncation).
func appendInt(b []byte, v int) []byte { return appendU64(b, uint64(int64(v))) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// appendRequestHeader serializes every Request field except Data (which
// travels as the frame payload) and Kind (which travels as the prefix's
// kind byte).
func appendRequestHeader(b []byte, req *Request) []byte {
	b = appendU64(b, req.ID)
	b = appendInt(b, req.NodeID)
	b = appendU64(b, req.Capacity)
	b = appendU64(b, req.Size)
	b = appendInt(b, req.Replicas)
	b = appendU64(b, req.Offset)
	b = appendInt(b, req.Length)
	b = appendU64(b, req.SlabID)
	b = appendU64(b, req.Epoch)
	b = appendStr(b, req.Addr)
	b = appendU32(b, uint32(len(req.Offsets)))
	for _, off := range req.Offsets {
		b = appendU64(b, off)
	}
	// Appended in kw v2 rev 3 (lease protocol); the layout is append-only.
	b = appendU64(b, req.Runtime)
	// Appended in rev 5 (line-addressed cache-line log), so a rev-4 peer's
	// write-log, whose entries carry 10-byte headers, is refused unparsed.
	return append(b, requestRev)
}

// requestRev is the request layout revision the last header byte names.
const requestRev = 5

// appendResponseHeader serializes every Response field except Data.
func appendResponseHeader(b []byte, resp *Response) []byte {
	b = appendInt(b, resp.Entries)
	b = appendU64(b, resp.Epoch)
	var msg string
	if resp.Err != nil {
		msg = resp.Err.Error()
	}
	b = appendStr(b, msg)
	b = appendU32(b, uint32(len(resp.Slabs)))
	for i := range resp.Slabs {
		s := &resp.Slabs[i]
		b = appendU64(b, s.ID)
		b = appendU64(b, uint64(s.Base))
		b = appendU64(b, s.Size)
		b = appendInt(b, s.Node)
		b = appendU64(b, s.Epoch)
		b = appendU32(b, s.RemoteKey)
		b = appendU64(b, s.RemoteOff)
	}
	b = appendU32(b, uint32(len(resp.Addrs)))
	for id, addr := range resp.Addrs {
		b = appendInt(b, id)
		b = appendStr(b, addr)
	}
	// Appended in kw v2 rev 4 (typed refusals): which sentinel Err wraps.
	return append(b, statusOf(resp.Err))
}

// --- bounds-checked decoder --------------------------------------------

// wireReader consumes a header byte-for-byte with a sticky error, so a
// truncated or corrupt header (fuzzed input, a desynced peer) degrades
// to zero values and one descriptive error instead of a panic.
type wireReader struct {
	b   []byte
	off int
	bad bool
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u8() byte {
	if r.bad || r.remaining() < 1 {
		r.bad = true
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

func (r *wireReader) u32() uint32 {
	if r.bad || r.remaining() < 4 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if r.bad || r.remaining() < 8 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) int() int { return int(int64(r.u64())) }

// str reads a length-prefixed string, copying it out of the (pooled,
// reused) header scratch.
func (r *wireReader) str() string {
	n := int(r.u32())
	if r.bad || n < 0 || r.remaining() < n {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// count reads a collection length and validates it against the bytes
// actually remaining (elemSize per element), so a corrupt count cannot
// trigger an outsized allocation.
func (r *wireReader) count(elemSize int) int {
	n := int(r.u32())
	if r.bad || n < 0 || n > r.remaining()/elemSize {
		r.bad = true
		return 0
	}
	return n
}

// done validates that the header was exactly consumed: leftover bytes
// mean the peer speaks a different layout revision.
func (r *wireReader) done(what string) error {
	if r.bad {
		return fmt.Errorf("cluster: truncated or corrupt %s header", what)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after %s header", r.remaining(), what)
	}
	return nil
}

// decodeRequestHeader fills req from a header produced by
// appendRequestHeader. req.Offsets is reused when capacity allows; Data
// is left untouched (the payload is delivered separately).
func decodeRequestHeader(k kind, hdr []byte, req *Request) error {
	if !k.known() {
		return fmt.Errorf("cluster: unknown request kind 0x%02x", byte(k))
	}
	req.Kind = k
	r := wireReader{b: hdr}
	req.ID = r.u64()
	req.NodeID = r.int()
	req.Capacity = r.u64()
	req.Size = r.u64()
	req.Replicas = r.int()
	req.Offset = r.u64()
	req.Length = r.int()
	req.SlabID = r.u64()
	req.Epoch = r.u64()
	req.Addr = r.str()
	if n := r.count(8); n > 0 {
		offs := req.Offsets[:0]
		if cap(offs) < n {
			offs = make([]uint64, 0, n)
		}
		for i := 0; i < n; i++ {
			offs = append(offs, r.u64())
		}
		req.Offsets = offs
	} else {
		req.Offsets = nil
	}
	req.Runtime = r.u64()
	if rev := r.u8(); r.bad || rev != requestRev {
		return fmt.Errorf("cluster: request header is not kw v2 rev %d (a peer built before the line-addressed cache-line log?)", requestRev)
	}
	return r.done("request")
}

// slabWireSize is one encoded slab record: 5 u64 fields + 1 u32 + 1 u64.
const slabWireSize = 5*8 + 4 + 8

// decodeResponseHeader fills resp from a header produced by
// appendResponseHeader. Data is left untouched.
func decodeResponseHeader(hdr []byte, resp *Response) error {
	r := wireReader{b: hdr}
	resp.Entries = r.int()
	resp.Epoch = r.u64()
	msg := r.str()
	if n := r.count(slabWireSize); n > 0 {
		resp.Slabs = make([]slab.Slab, n)
		for i := range resp.Slabs {
			s := &resp.Slabs[i]
			s.ID = r.u64()
			s.Base = mem.Addr(r.u64())
			s.Size = r.u64()
			s.Node = r.int()
			s.Epoch = r.u64()
			s.RemoteKey = r.u32()
			s.RemoteOff = r.u64()
		}
	} else {
		resp.Slabs = nil
	}
	// Addr map entries are at least 12 bytes (node + empty string).
	if n := r.count(8 + 4); n > 0 {
		resp.Addrs = make(map[int]string, n)
		for i := 0; i < n; i++ {
			id := r.int()
			addr := r.str()
			if r.bad {
				break
			}
			resp.Addrs[id] = addr
		}
	} else {
		resp.Addrs = nil
	}
	st := r.u8()
	if err := r.done("response"); err != nil {
		return err
	}
	if int(st) >= len(statusErrs) {
		return fmt.Errorf("cluster: unknown response status %d", st)
	}
	resp.Err = nil
	if msg != "" || st != 0 {
		resp.Err = &RemoteError{Msg: msg, status: st}
	}
	return nil
}
