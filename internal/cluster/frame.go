package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Wire framing for the TCP protocol (DESIGN.md §11): every message is a
// fixed 12-byte prefix, a small fixed-layout binary header (codec.go),
// and an optional raw payload.
//
//	[0]     'k'            magic
//	[1]     'w'            magic
//	[2]     0x02           wire version
//	[3]     kind           request kind byte, or kindResponse
//	[4:8]   header length  big-endian uint32
//	[8:12]  payload length big-endian uint32
//
// The split between header and payload is the point: the header is tiny
// and staged through a pooled scratch buffer, while payload bytes are
// handed to the kernel as separate writev iovecs (net.Buffers) on send.
// On receive every connection reads through one frameReader: a frame
// that fits its buffer (prefix + header + one page) arrives in a single
// read and its payload takes one copy to its destination; whatever a
// larger payload has left on the socket is ReadFull'd straight into its
// destination — a caller's page frames, the memnode's log region.
//
// A peer speaking the legacy gob framing (4-byte length prefix, gob
// body) fails the magic check on the first frame and is rejected with a
// version-mismatch error instead of producing garbage.

const (
	frameMagic0  = 'k'
	frameMagic1  = 'w'
	frameVersion = 2
	// framePrefixLen is the fixed prefix: magic, version, kind, lengths.
	framePrefixLen = 12
)

// maxFrameSize bounds a single frame's payload. The largest legitimate
// payloads are cache-line logs (LogRegionSize, 4MB) and bulk writes;
// anything beyond this is treated as corruption rather than a request to
// allocate memory.
const maxFrameSize = 64 << 20

// maxHeaderSize bounds the encoded header. Headers hold scalar fields
// plus bounded collections (ReadPages offsets, slab/address tables); a
// larger claim is corruption.
const maxHeaderSize = 1 << 20

// maxPooledBuf caps what the buffer pools retain. Oversized buffers are
// dropped back to the allocator instead of pinning pool memory.
const maxPooledBuf = LogRegionSize + 4096

// payloadPool recycles the server's payload staging buffers (inbound
// Write bodies, outbound Read/ReadPages images).
var payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// sendScratch is what sending one frame takes besides its payload: the
// prefix+header encode buffer (headers are tens to hundreds of bytes)
// and the writev vector. WriteTo consumes the net.Buffers it is called
// on, so vec keeps the backing array for reuse and rest is what WriteTo
// eats; calling it on the pooled struct keeps the slice header off the
// heap. Pooled, so the steady-state send path allocates nothing.
type sendScratch struct {
	hdr       []byte
	vec, rest net.Buffers
}

var sendPool = sync.Pool{New: func() any {
	return &sendScratch{hdr: make([]byte, 0, 1024), vec: make(net.Buffers, 0, 8)}
}}

// getPayloadBuf returns a pooled n-byte buffer and its pool handle.
func getPayloadBuf(n int) (*[]byte, []byte) {
	bp := payloadPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return bp, (*bp)[:n]
}

// putPayloadBuf returns a staging buffer to the pool.
func putPayloadBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		payloadPool.Put(bp)
	}
}

// send patches the frame prefix at the front of the encoded header in
// s.hdr and ships header + payload slices with a single scatter-gather
// write, then returns s to the pool. On a *net.TCPConn, net.Buffers
// becomes one writev; payload bytes go from their owning arena to the
// kernel untouched. Returns bytes written.
func (s *sendScratch) send(w io.Writer, payload [][]byte) (int, error) {
	defer func() {
		if cap(s.hdr) <= maxPooledBuf {
			sendPool.Put(s)
		}
	}()
	payLen := 0
	for _, p := range payload {
		payLen += len(p)
	}
	if payLen > maxFrameSize {
		return 0, fmt.Errorf("cluster: frame payload of %d bytes exceeds limit", payLen)
	}
	if hdrLen := len(s.hdr) - framePrefixLen; hdrLen > maxHeaderSize {
		return 0, fmt.Errorf("cluster: frame header of %d bytes exceeds limit", hdrLen)
	}
	binary.BigEndian.PutUint32(s.hdr[4:8], uint32(len(s.hdr)-framePrefixLen))
	binary.BigEndian.PutUint32(s.hdr[8:12], uint32(payLen))
	if payLen == 0 {
		return w.Write(s.hdr)
	}
	s.vec = append(s.vec[:0], s.hdr)
	for _, p := range payload {
		if len(p) > 0 {
			s.vec = append(s.vec, p)
		}
	}
	s.rest = s.vec
	n, err := s.rest.WriteTo(w)
	// Clear the retained backing array so pooled scratch does not pin
	// payload arenas.
	clear(s.vec)
	s.rest = nil
	return int(n), err
}

// framePrefix starts an encode buffer: magic, version, kind, and
// placeholder length fields that send patches.
func framePrefix(b []byte, k kind) []byte {
	return append(b, frameMagic0, frameMagic1, frameVersion, byte(k),
		0, 0, 0, 0, 0, 0, 0, 0)
}

// writeRequestFrame encodes req's header and ships it with the given
// payload slices (req.Data is NOT implicit — callers pass it, or a
// scatter list replacing it). Returns bytes written.
func writeRequestFrame(w io.Writer, req *Request, payload ...[]byte) (int, error) {
	if !req.Kind.known() {
		return 0, fmt.Errorf("cluster: unknown request kind 0x%02x", byte(req.Kind))
	}
	s := sendPool.Get().(*sendScratch)
	s.hdr = appendRequestHeader(framePrefix(s.hdr[:0], req.Kind), req)
	return s.send(w, payload)
}

// writeResponseFrame encodes resp's header and ships it with the given
// payload slices. Returns bytes written.
func writeResponseFrame(w io.Writer, resp *Response, payload ...[]byte) (int, error) {
	s := sendPool.Get().(*sendScratch)
	s.hdr = appendResponseHeader(framePrefix(s.hdr[:0], kindResponse), resp)
	return s.send(w, payload)
}

// connBufLen sizes every connection's read buffer: a frame prefix, a
// scalar header (a Read request's is 88 bytes, its reply's 29) and one
// 4 KB page, so a whole page fetch — request or reply — is one read.
const connBufLen = framePrefixLen + 500 + 4096

// frameReader is the one way frames come off a connection: the server's
// per-connection loop and every pooled client connection own one. It
// reads ahead into a fixed buffer, so prefix, header and a page-sized
// payload cost one read call instead of three; the bytes of a larger
// payload still on the socket bypass the buffer.
type frameReader struct {
	src  io.Reader
	r, w int    // buf[r:w] is read but not yet consumed
	big  []byte // header scratch for the rare header larger than buf
	buf  [connBufLen]byte
}

// buffered reports bytes read off the stream but not yet consumed.
func (f *frameReader) buffered() int { return f.w - f.r }

// fill reads until at least n <= len(buf) bytes are buffered. io.EOF
// means the stream ended with nothing buffered; ending short of n is
// io.ErrUnexpectedEOF.
func (f *frameReader) fill(n int) error {
	if f.r == f.w {
		f.r, f.w = 0, 0
	} else if f.r+n > len(f.buf) {
		f.w = copy(f.buf[:], f.buf[f.r:f.w])
		f.r = 0
	}
	for f.w-f.r < n {
		m, err := f.src.Read(f.buf[f.w:])
		f.w += m
		if err != nil && f.w-f.r < n {
			if err == io.EOF && f.w > f.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// readFull fills dst from the buffered bytes first and the stream after,
// returning how many bytes took the copy through the buffer.
func (f *frameReader) readFull(dst []byte) (copied int, err error) {
	copied = copy(dst, f.buf[f.r:f.w])
	f.r += copied
	if copied < len(dst) {
		_, err = io.ReadFull(f.src, dst[copied:])
	}
	return copied, err
}

// readHeader reads one frame's prefix and header. The returned hdr
// aliases the reader's buffer and stays valid until the next readHeader;
// payLen bytes of payload remain for the caller to place. A clean close
// at a frame boundary returns io.EOF; truncation, a bad magic (e.g. a
// legacy gob-framed peer), or a nonsensical length returns a descriptive
// error.
func (f *frameReader) readHeader() (k kind, hdr []byte, payLen int, err error) {
	if err := f.fill(framePrefixLen); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("cluster: read frame prefix: %w", err)
	}
	pre := f.buf[f.r : f.r+framePrefixLen]
	if pre[0] != frameMagic0 || pre[1] != frameMagic1 {
		return 0, nil, 0, fmt.Errorf(
			"cluster: bad frame magic %02x%02x: peer does not speak the kw wire protocol (legacy gob-framed peer?)",
			pre[0], pre[1])
	}
	if pre[2] != frameVersion {
		return 0, nil, 0, fmt.Errorf("cluster: wire version mismatch: peer speaks v%d, this build v%d",
			pre[2], frameVersion)
	}
	k = kind(pre[3])
	hl, pl := binary.BigEndian.Uint32(pre[4:8]), binary.BigEndian.Uint32(pre[8:12])
	if hl > maxHeaderSize {
		return 0, nil, 0, fmt.Errorf("cluster: bad frame header length %d", hl)
	}
	if pl > maxFrameSize {
		return 0, nil, 0, fmt.Errorf("cluster: bad frame payload length %d", pl)
	}
	hdrLen := int(hl)
	f.r += framePrefixLen
	if hdrLen <= len(f.buf) {
		if err = f.fill(hdrLen); err == nil {
			hdr = f.buf[f.r : f.r+hdrLen]
			f.r += hdrLen
		}
	} else {
		if cap(f.big) < hdrLen {
			f.big = make([]byte, hdrLen)
		}
		hdr = f.big[:hdrLen]
		_, err = f.readFull(hdr)
	}
	if err != nil {
		return 0, nil, 0, fmt.Errorf("cluster: truncated frame header (want %d bytes): %w", hdrLen, err)
	}
	return k, hdr, int(pl), nil
}

// readPayload scatters a frame's payLen payload bytes into dsts in
// order. The destination lengths must sum to exactly payLen — the frame
// says how many bytes follow, and landing them anywhere else would
// desynchronize the stream. copied is how many of them went through the
// reader's buffer instead of straight from the socket.
func (f *frameReader) readPayload(payLen int, dsts ...[]byte) (copied int, err error) {
	total := 0
	for _, d := range dsts {
		total += len(d)
	}
	if total != payLen {
		return 0, fmt.Errorf("cluster: frame payload is %d bytes, destination holds %d", payLen, total)
	}
	for _, d := range dsts {
		n, err := f.readFull(d)
		copied += n
		if err != nil {
			return copied, fmt.Errorf("cluster: truncated frame payload (want %d bytes): %w", payLen, err)
		}
	}
	return copied, nil
}

// discardPayload drains n payload bytes the receiver refused (bad
// header, refused sink), keeping the stream framed so the connection can
// carry an error response instead of being torn down.
func (f *frameReader) discardPayload(n int) error {
	k := min(n, f.buffered())
	f.r += k
	if _, err := io.CopyN(io.Discard, f.src, int64(n-k)); err != nil {
		return fmt.Errorf("cluster: draining refused payload: %w", err)
	}
	return nil
}
