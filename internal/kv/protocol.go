package kv

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The wire protocol is memcached's text protocol (DESIGN.md §12 has the
// grammar): newline-framed commands, byte-counted data blocks.
//
//	get <key> [<key> ...]\r\n
//	set <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
//	delete <key> [noreply]\r\n
//	stats\r\n
//	version\r\n
//	quit\r\n
//
// Responses: VALUE <key> <flags> <bytes>\r\n<data>\r\n ... END\r\n for
// get; STORED / DELETED / NOT_FOUND; STAT <name> <value>\r\n ... END\r\n;
// ERROR / CLIENT_ERROR <msg> / SERVER_ERROR <msg> on failure. flags are
// stored verbatim per key (memcached's opaque 32-bit client cookie);
// exptime is accepted and ignored (documented — the store's eviction is
// capacity-driven, not TTL-driven).

type command struct {
	op      string   // "get", "set", "delete", "stats", "version", "quit"
	keys    [][]byte // alias line; valid until the next readCommand
	flags   uint32
	noreply bool
	data    []byte // set payload

	// line is the command's own copy of its first line — the reader's
	// buffer is reused as soon as a data block is read — and fields its
	// space-separated words; both are reused from command to command.
	line   []byte
	fields [][]byte
}

var errQuit = errors.New("kv: client quit")

// maxLineLen bounds a command line; memcached uses a fixed 2KB buffer.
const maxLineLen = 2048

// readCommand parses one command off the stream, allocating nothing on
// a well-formed get, set or delete. Protocol errors that leave the
// stream framed (bad arguments on a known verb) return a *clientError so
// the server can answer CLIENT_ERROR and keep the connection;
// framing-breaking errors (overlong line, short data block) return
// ordinary errors and drop the connection, matching memcached.
//
// armed (optional) runs as soon as the command line has arrived —
// before any data block is read. The server uses it to give an
// in-flight command its own deadline, so a graceful drain (which wakes
// readers blocked *between* commands with an immediate deadline) never
// cuts a request off mid-payload.
func readCommand(br *bufio.Reader, cmd *command, armed func()) error {
	line, err := readLine(br)
	if err != nil {
		return err
	}
	if armed != nil {
		armed()
	}
	cmd.line = append(cmd.line[:0], line...)
	fields := splitFields(cmd.line, cmd.fields[:0])
	*cmd = command{keys: cmd.keys[:0], data: cmd.data[:0], line: cmd.line, fields: fields}
	if len(fields) == 0 {
		return &clientError{"empty command"}
	}
	switch string(fields[0]) {
	case "get", "gets":
		cmd.op = "get"
		if len(fields) < 2 {
			return &clientError{"get needs at least one key"}
		}
		for _, k := range fields[1:] {
			if len(k) > maxKeyLen {
				return &clientError{"key too long"}
			}
			cmd.keys = append(cmd.keys, k)
		}
	case "set":
		cmd.op = "set"
		if len(fields) < 5 || len(fields) > 6 {
			return &clientError{"set <key> <flags> <exptime> <bytes> [noreply]"}
		}
		if len(fields) == 6 {
			if string(fields[5]) != "noreply" {
				return &clientError{"bad set option " + string(fields[5])}
			}
			cmd.noreply = true
		}
		key := fields[1]
		flags, fok := parseUint(fields[2], math.MaxUint32)
		exptime := fields[3] // accepted, ignored
		if len(exptime) > 1 && exptime[0] == '-' {
			exptime = exptime[1:]
		}
		_, eok := parseUint(exptime, math.MaxInt64)
		n, nok := parseUint(fields[4], maxValueLen*2)
		if !nok {
			// The length governs how many bytes of data block follow; if we
			// can't trust it the stream is unframed — drop the connection.
			return fmt.Errorf("kv: unframeable set length %q", fields[4])
		}
		if !fok || !eok || len(key) > maxKeyLen || n > maxValueLen {
			// The command is bad but the data block is framed: drain it so
			// the connection stays usable, then reject.
			if derr := discardBlock(br, int(n)); derr != nil {
				return derr
			}
			if n > maxValueLen {
				return &clientError{"object too large for cache"}
			}
			return &clientError{"bad set arguments"}
		}
		cmd.keys = append(cmd.keys, key)
		cmd.flags = uint32(flags)
		if cap(cmd.data) < int(n) {
			cmd.data = make([]byte, n)
		}
		cmd.data = cmd.data[:n]
		if _, err := io.ReadFull(br, cmd.data); err != nil {
			return fmt.Errorf("kv: short data block: %w", err)
		}
		if err := expectCRLF(br); err != nil {
			return err
		}
	case "delete":
		cmd.op = "delete"
		if len(fields) < 2 || len(fields) > 3 {
			return &clientError{"delete <key> [noreply]"}
		}
		if len(fields) == 3 {
			if string(fields[2]) != "noreply" {
				return &clientError{"bad delete option " + string(fields[2])}
			}
			cmd.noreply = true
		}
		cmd.keys = append(cmd.keys, fields[1])
	case "stats":
		cmd.op = "stats"
	case "version":
		cmd.op = "version"
	case "quit":
		return errQuit
	default:
		return &clientError{""} // bare ERROR, memcached's unknown-verb answer
	}
	return nil
}

// clientError is a recoverable protocol error: answered on the wire,
// connection kept.
type clientError struct{ msg string }

func (e *clientError) Error() string { return e.msg }

// readLine returns the next line without its line ending. The slice
// aliases br's buffer: it is valid only until the next read from br.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull || (err == nil && len(line) > maxLineLen) {
		return nil, fmt.Errorf("kv: command line over %d bytes", maxLineLen)
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// splitFields appends line's words — separated by runs of spaces or
// tabs — to dst as subslices of line.
func splitFields(line []byte, dst [][]byte) [][]byte {
	start := -1
	for i, c := range line {
		if c == ' ' || c == '\t' {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// parseUint parses an unsigned decimal no larger than max.
func parseUint(b []byte, max uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || d > max || v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func expectCRLF(br *bufio.Reader) error {
	b0, err := br.ReadByte()
	if err != nil {
		return err
	}
	if b0 == '\r' {
		if b0, err = br.ReadByte(); err != nil {
			return err
		}
	}
	if b0 != '\n' {
		return errors.New("kv: data block not followed by CRLF")
	}
	return nil
}

func discardBlock(br *bufio.Reader, n int) error {
	if _, err := br.Discard(n); err != nil {
		return err
	}
	return expectCRLF(br)
}

// Response writers. All take the buffered writer; the caller flushes
// once per command (multi-get answers in one flush).

func writeValue(bw *bufio.Writer, key []byte, flags uint32, val []byte) {
	bw.WriteString("VALUE ")
	bw.Write(key)
	bw.WriteByte(' ')
	writeUint(bw, uint64(flags))
	bw.WriteByte(' ')
	writeUint(bw, uint64(len(val)))
	bw.WriteString("\r\n")
	bw.Write(val)
	bw.WriteString("\r\n")
}

// writeUint writes v in decimal without building a string.
func writeUint(bw *bufio.Writer, v uint64) {
	bw.Write(strconv.AppendUint(bw.AvailableBuffer(), v, 10))
}

func writeLine(bw *bufio.Writer, line string) {
	bw.WriteString(line)
	bw.WriteString("\r\n")
}

func writeStat(bw *bufio.Writer, name string, value any) {
	fmt.Fprintf(bw, "STAT %s %v\r\n", name, value)
}
