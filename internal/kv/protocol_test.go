package kv

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"
)

func parseOne(t *testing.T, wire string) (*command, error) {
	t.Helper()
	var cmd command
	err := readCommand(bufio.NewReader(strings.NewReader(wire)), &cmd, nil)
	return &cmd, err
}

func TestProtocolParse(t *testing.T) {
	cmd, err := parseOne(t, "get alpha beta gamma\r\n")
	if err != nil || cmd.op != "get" || len(cmd.keys) != 3 || string(cmd.keys[2]) != "gamma" {
		t.Fatalf("multi-get = %+v, %v", cmd, err)
	}

	cmd, err = parseOne(t, "set k 7 0 5\r\nhello\r\n")
	if err != nil || cmd.op != "set" || string(cmd.keys[0]) != "k" || cmd.flags != 7 ||
		string(cmd.data) != "hello" || cmd.noreply {
		t.Fatalf("set = %+v, %v", cmd, err)
	}

	cmd, err = parseOne(t, "set k 0 0 3 noreply\r\nabc\r\n")
	if err != nil || !cmd.noreply || string(cmd.data) != "abc" {
		t.Fatalf("set noreply = %+v, %v", cmd, err)
	}

	// Bare-LF framing (telnet clients) is tolerated.
	cmd, err = parseOne(t, "set k 0 0 2\nhi\n")
	if err != nil || string(cmd.data) != "hi" {
		t.Fatalf("bare-LF set = %+v, %v", cmd, err)
	}

	cmd, err = parseOne(t, "delete k noreply\r\n")
	if err != nil || cmd.op != "delete" || !cmd.noreply {
		t.Fatalf("delete = %+v, %v", cmd, err)
	}

	if _, err = parseOne(t, "quit\r\n"); !errors.Is(err, errQuit) {
		t.Fatalf("quit = %v", err)
	}
}

func TestProtocolErrors(t *testing.T) {
	isClientErr := func(err error) bool {
		var ce *clientError
		return errors.As(err, &ce)
	}
	// Unknown verbs and malformed arguments keep the connection:
	// *clientError, answered on the wire.
	for _, wire := range []string{
		"bogus\r\n",
		"get\r\n",
		"set k 0 0\r\n",
		"set k notanumber 0 5\r\nhello\r\n",
		"set k 0 0 5 yesreply\r\nhello\r\n",
		"delete\r\n",
		"get " + strings.Repeat("k", maxKeyLen+1) + "\r\n",
	} {
		if _, err := parseOne(t, wire); !isClientErr(err) {
			t.Errorf("%q: err = %v, want clientError", strings.TrimSpace(wire), err)
		}
	}
	// Framing breakers drop the connection: plain errors.
	for _, wire := range []string{
		"set k 0 0 5\r\nab\r\n",             // short data block
		"set k 0 0 3\r\nabcde\r\n",          // data not followed by CRLF
		strings.Repeat("x", maxLineLen+10),  // overlong line
		"set k 0 0 " + "99999999999999\r\n", // unframeable length
	} {
		_, err := parseOne(t, wire)
		if err == nil || isClientErr(err) {
			t.Errorf("%q...: err = %v, want framing error", wire[:20], err)
		}
	}
	// An oversized-but-framed value is drained and answered, stream intact.
	big := strings.Repeat("v", maxValueLen+1)
	wire := "set k 0 0 " + strconv.Itoa(maxValueLen+1) + "\r\n" + big + "\r\nget ok\r\n"
	br := bufio.NewReader(strings.NewReader(wire))
	var cmd command
	if err := readCommand(br, &cmd, nil); !isClientErr(err) {
		t.Fatalf("oversized set = %v, want clientError", err)
	}
	if err := readCommand(br, &cmd, nil); err != nil || cmd.op != "get" || string(cmd.keys[0]) != "ok" {
		t.Fatalf("stream broken after oversized set: %+v, %v", cmd, err)
	}
}

func TestProtocolArmedFiresBeforeData(t *testing.T) {
	// armed must run after the command line but before the data block is
	// consumed — that ordering is what lets the server arm a per-request
	// deadline covering the payload read.
	pr, pw := newHalfPipe("set k 0 0 5\r\n")
	br := bufio.NewReader(pr)
	var cmd command
	armedAt := -1
	go func() {
		// Supply the payload only after armed has observed the state.
		<-pr.armed
		pw.WriteString("hello\r\n")
		pw.close()
	}()
	err := readCommand(br, &cmd, func() {
		armedAt = pr.consumed()
		close(pr.armed)
	})
	if err != nil || string(cmd.data) != "hello" {
		t.Fatalf("readCommand = %+v, %v", cmd, err)
	}
	if armedAt < len("set k 0 0 5\r\n")-2 || armedAt > len("set k 0 0 5\r\n")+1 {
		t.Fatalf("armed fired at byte %d, want right after the command line", armedAt)
	}
}

// halfPipe feeds a fixed prefix, then blocks until more is written —
// letting the test observe exactly how much readCommand consumed when
// armed fired.
type halfPipe struct {
	buf   bytes.Buffer
	read  int
	more  chan string
	armed chan struct{}
	done  bool
}

func newHalfPipe(prefix string) (*halfPipe, *halfPipe) {
	p := &halfPipe{more: make(chan string, 4), armed: make(chan struct{})}
	p.buf.WriteString(prefix)
	return p, p
}

func (p *halfPipe) Read(b []byte) (int, error) {
	for p.buf.Len() == 0 {
		if p.done {
			return 0, errors.New("halfPipe closed")
		}
		s, ok := <-p.more
		if !ok {
			p.done = true
			continue
		}
		p.buf.WriteString(s)
	}
	n, err := p.buf.Read(b)
	p.read += n
	return n, err
}

func (p *halfPipe) WriteString(s string) { p.more <- s }
func (p *halfPipe) close()               { close(p.more) }
func (p *halfPipe) consumed() int        { return p.read }

// TestClientRefusalIsTyped pins what the load engine's redial decision
// rests on: an in-band refusal (a whole SERVER_ERROR line) matches
// ErrRefused, so the connection is kept; a malformed VALUE line does not,
// so it is redialled.
func TestClientRefusalIsTyped(t *testing.T) {
	reply := func(wire string, op func(*Client) error) error {
		cc, sc := net.Pipe()
		defer cc.Close()
		go func() {
			defer sc.Close()
			br := bufio.NewReader(sc)
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			sc.Write([]byte(wire))
		}()
		return op(NewClient(cc))
	}
	set := func(c *Client) error { return c.Set("k", 0, nil) }
	get := func(c *Client) error { _, _, _, err := c.Get("k"); return err }
	del := func(c *Client) error { _, err := c.Delete("k"); return err }
	for _, tc := range []struct {
		name    string
		wire    string
		op      func(*Client) error
		refused bool
	}{
		{"set SERVER_ERROR", "SERVER_ERROR out of memory\r\n", set, true},
		{"get SERVER_ERROR", "SERVER_ERROR remote memory unavailable\r\n", get, true},
		{"delete CLIENT_ERROR", "CLIENT_ERROR bad command line format\r\n", del, true},
		{"get malformed VALUE", "VALUE k 0\r\n", get, false},
	} {
		err := reply(tc.wire, tc.op)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if errors.Is(err, ErrRefused) != tc.refused {
			t.Errorf("%s: errors.Is(%v, ErrRefused) = %t, want %t", tc.name, err, !tc.refused, tc.refused)
		}
	}
}
