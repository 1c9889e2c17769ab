package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"kona/internal/mem"
	"kona/internal/slab"
)

// mkSlab derives one slab record from fuzzed scalars.
func mkSlab(id, base, epoch uint64, i int) slab.Slab {
	return slab.Slab{
		ID: id, Base: mem.Addr(base + id), Size: base ^ id, Node: i - 2,
		Epoch: epoch, RemoteKey: uint32(id * 2654435761), RemoteOff: base * 3,
	}
}

// recvResponse reads one response frame off r the way a client
// connection does, through a frame reader of its own; r must carry
// nothing past that frame.
func recvResponse(r io.Reader, resp *Response) error {
	_, _, err := (&frameReader{src: r}).readResponse(resp, nil)
	return err
}

// roundTripOnce performs one request/response over a connection of its
// own, without retries.
func roundTripOnce(addr string, req *Request) (Response, error) {
	p := newPool(addr, Transport{MaxRetries: -1})
	defer p.Close()
	return p.roundTrip(req)
}

// encodeRequest frames req (with req.Data as payload) into a buffer.
func encodeRequest(t testing.TB, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeRequestFrame(&buf, req, req.Data); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// decodeRequest parses one framed request the way the serve loop does:
// prefix+header, then the payload into a fresh buffer.
func decodeRequest(data []byte) (Request, error) {
	r := &frameReader{src: bytes.NewReader(data)}
	var req Request
	kind, hdr, payLen, err := r.readHeader()
	if err != nil {
		return req, err
	}
	if err := decodeRequestHeader(kind, hdr, &req); err != nil {
		return req, err
	}
	if payLen > 0 {
		req.Data = make([]byte, payLen)
		if _, err := r.readPayload(payLen, req.Data); err != nil {
			return req, err
		}
	}
	return req, nil
}

// encodeResponse frames resp (with resp.Data as payload) into a buffer.
func encodeResponse(t testing.TB, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeResponseFrame(&buf, resp, resp.Data); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// refusals is one response per typed refusal, each carrying its
// sentinel wrapped the way the refusing code wraps it.
func refusals() []Response {
	var out []Response
	for s := 1; s < len(statusErrs); s++ {
		out = append(out, Response{Err: fmt.Errorf("memnode 1: refused: %w", statusErrs[s])})
	}
	return out
}

// badStatusFrame is an otherwise well-formed response frame whose status
// byte, the header's last, is one past the last code.
func badStatusFrame(t testing.TB) []byte {
	b := encodeResponse(t, &Response{Epoch: 9})
	b[len(b)-1] = byte(len(statusErrs))
	return b
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader and both
// header decoders and requires an error or a value — never a panic, a
// hang, or an outsized allocation. The frame reader consumes from a
// finite in-memory stream, so termination is structural; what the fuzzer
// hunts for is panics and allocation bombs (a corrupt header claiming a
// huge collection must be rejected by the bounds checks, not malloc'd).
func FuzzFrameDecode(f *testing.F) {
	// Seed with a valid frame, a truncated frame, a length-bomb prefix, a
	// legacy gob-framed message, a wrong-version frame, and plain garbage.
	valid := encodeRequest(f, &Request{Kind: kindPing, ID: 42})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{frameMagic0, frameMagic1, frameVersion, byte(kindPing), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	var legacy bytes.Buffer
	legacy.Write([]byte{0, 0, 0, 64})
	if err := gob.NewEncoder(&legacy).Encode(&Request{Kind: kindRead, Length: 64}); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	f.Add([]byte{frameMagic0, frameMagic1, 0x01, byte(kindPing), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("not a frame"))
	// Lease-protocol seeds: a well-formed acquire, the same frame cut off
	// mid-header (a runtime dying mid-send), and a fence push carrying a
	// stale max epoch from a zombie controller.
	lease := encodeRequest(f, &Request{
		Kind: kindLeaseAcquire, ID: 7, SlabID: 3, Runtime: 99,
		Length: int(LeaseWriter), Size: uint64(DefaultLeaseTTL),
	})
	f.Add(lease)
	f.Add(lease[:len(lease)-3])
	f.Add(encodeRequest(f, &Request{
		Kind: kindLeaseFence, Offset: 1 << 20, Size: 4096,
		Runtime: ^uint64(0), Epoch: ^uint64(0),
	}))
	f.Add(encodeResponse(f, &Response{Entries: 3, Epoch: 9}))
	// Typed-refusal seeds: one per status, and one whose status byte is
	// past the last code. That one is outside input: it must decode to an
	// error, never to success.
	for _, r := range refusals() {
		f.Add(encodeResponse(f, &r))
	}
	bad := badStatusFrame(f)
	if err := recvResponse(bytes.NewReader(bad), new(Response)); err == nil {
		f.Fatal("response with an unknown status decoded")
	}
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeRequest(data); err == nil {
			// Fine: the fuzzer found a structurally valid request frame.
			_ = err
		}
		var rsp Response
		_ = recvResponse(bytes.NewReader(data), &rsp)
		// The raw header decoders must hold up against arbitrary bytes too
		// (the serve loop feeds them anything that passes the prefix).
		var req Request
		_ = decodeRequestHeader(kindRead, data, &req)
		var rsp2 Response
		_ = decodeResponseHeader(data, &rsp2)
	})
}

// FuzzRequestRoundTrip checks the request codec is lossless: any Request
// built from the fuzzed field set must encode and decode to an identical
// value, including negative ints, empty-vs-nil slices, and randomized
// offset vectors.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint64(1), 0, uint64(4096), uint64(128), 64, uint64(0), "", []byte("payload"), uint8(0))
	f.Add(uint8(0), uint64(0), -1, uint64(0), uint64(0), 0, uint64(0), "", []byte(nil), uint8(0))
	f.Add(uint8(1), ^uint64(0), 1<<30, ^uint64(0), ^uint64(0), -1, ^uint64(0), "127.0.0.1:7070",
		bytes.Repeat([]byte{0xAB}, 300), uint8(8))

	f.Fuzz(func(t *testing.T, kindSel uint8, id uint64, nodeID int, size, offset uint64,
		length int, epoch uint64, addr string, data []byte, offsCount uint8) {
		in := Request{
			Kind: kind(1 + int(kindSel)%(len(kinds)-1)),
			ID:   id, NodeID: nodeID, Capacity: size ^ offset, Addr: addr,
			Size: size, Replicas: nodeID >> 1, Offset: offset, Length: length,
			SlabID: id ^ epoch, Epoch: epoch, Data: data,
			Runtime: id ^ size, // lease/fence holder identity must survive the trip
		}
		for i := 0; i < int(offsCount%17); i++ {
			in.Offsets = append(in.Offsets, offset+uint64(i)*7919)
		}
		out, err := decodeRequest(encodeRequest(t, &in))
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		// The payload travels separately; an empty one decodes to nil.
		if len(in.Data) == 0 {
			in.Data = nil
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mutated request:\n in: %+v\nout: %+v", in, out)
		}
	})
}

// FuzzResponseRoundTrip checks the response codec is lossless across
// randomized field sets, including slab tables and address maps built
// from the fuzzed scalars.
func FuzzResponseRoundTrip(f *testing.F) {
	f.Add("", uint8(0), 0, uint64(0), uint64(0), uint8(0), uint8(0), []byte(nil))
	f.Add("remote exploded", uint8(0), -3, ^uint64(0), uint64(42), uint8(0), uint8(0), []byte(nil))
	f.Add("", uint8(0), 7, uint64(5), uint64(1<<40), uint8(4), uint8(3), []byte("reply payload"))
	f.Add("memnode 1: write [0,+64) by runtime 7: extent lease-fenced", statusOf(ErrLeaseFenced), 0, uint64(0), uint64(0), uint8(0), uint8(0), []byte(nil))
	f.Add("", statusOf(ErrStaleIncarnation), 0, uint64(0), uint64(0), uint8(0), uint8(0), []byte(nil))

	f.Fuzz(func(t *testing.T, errStr string, st uint8, entries int, epoch, base uint64,
		slabCount, addrCount uint8, data []byte) {
		in := Response{Entries: entries, Epoch: epoch}
		s := st % uint8(len(statusErrs))
		if errStr != "" || s != 0 {
			in.Err = &RemoteError{Msg: errStr, status: s}
		} else {
			in.Data = data
		}
		for i := 0; i < int(slabCount%9); i++ {
			in.Slabs = append(in.Slabs, mkSlab(uint64(i), base, epoch, i))
		}
		for i := 0; i < int(addrCount%9); i++ {
			if in.Addrs == nil {
				in.Addrs = make(map[int]string)
			}
			in.Addrs[i-4] = strings.Repeat("a", i)
		}
		var buf bytes.Buffer
		if _, err := writeResponseFrame(&buf, &in, in.Data); err != nil {
			t.Fatalf("encode: %v", err)
		}
		var out Response
		if err := recvResponse(&buf, &out); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if len(in.Data) == 0 {
			in.Data = nil
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mutated response:\n in: %+v\nout: %+v", in, out)
		}
		if s != 0 && !errors.Is(out.Err, statusErrs[s]) {
			t.Fatalf("status %d decoded as %v, not its sentinel", s, out.Err)
		}
	})
}
