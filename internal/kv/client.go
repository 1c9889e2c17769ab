package kv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"time"
)

// ErrRefused wraps every reply in which the server answered a request in
// band with something other than success — SERVER_ERROR, CLIENT_ERROR, a
// status the verb does not expect. The reply was a whole line, so the
// connection stays framed and usable; any other Client error may have left
// it mid-reply and calls for a redial.
var ErrRefused = errors.New("kv: request refused")

// Client is one text-protocol connection to a kvd server. It is not
// safe for concurrent use — the load engine gives each worker its own
// client, like a real memcached client pool.
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	fields [][]byte // reply-line split scratch
}

// Dial connects to a kvd server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("kv: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 16<<10),
		bw:   bufio.NewWriterSize(conn, 16<<10),
	}
}

// Close sends quit and closes the connection.
func (c *Client) Close() error {
	c.bw.WriteString("quit\r\n")
	c.bw.Flush()
	return c.conn.Close()
}

// Set stores key=value and waits for the STORED acknowledgment.
func (c *Client) Set(key string, flags uint32, value []byte) error {
	c.bw.WriteString("set ")
	c.bw.WriteString(key)
	c.bw.WriteByte(' ')
	writeUint(c.bw, uint64(flags))
	c.bw.WriteString(" 0 ")
	writeUint(c.bw, uint64(len(value)))
	c.bw.WriteString("\r\n")
	c.bw.Write(value)
	c.bw.WriteString("\r\n")
	if err := c.bw.Flush(); err != nil {
		return err
	}
	line, err := readLine(c.br)
	if err != nil {
		return err
	}
	if string(line) != "STORED" {
		return fmt.Errorf("%w: set %q: server answered %q", ErrRefused, key, line)
	}
	return nil
}

// Get fetches one key; ok reports presence. The returned value is the
// call's only allocation.
func (c *Client) Get(key string) (value []byte, flags uint32, ok bool, err error) {
	c.bw.WriteString("get ")
	c.bw.WriteString(key)
	c.bw.WriteString("\r\n")
	if err := c.bw.Flush(); err != nil {
		return nil, 0, false, err
	}
	for {
		line, err := readLine(c.br)
		if err != nil {
			return nil, 0, false, err
		}
		if string(line) == "END" {
			return value, flags, ok, nil
		}
		// line aliases the read buffer: parse it all before the data block
		// is read over it.
		c.fields = splitFields(line, c.fields[:0])
		if len(c.fields) == 0 || string(c.fields[0]) != "VALUE" {
			return nil, 0, false, fmt.Errorf("%w: get %q: server answered %q", ErrRefused, key, line)
		}
		if len(c.fields) != 4 || string(c.fields[1]) != key {
			return nil, 0, false, fmt.Errorf("kv: get %q: bad VALUE line %q", key, line)
		}
		f, fok := parseUint(c.fields[2], math.MaxUint32)
		n, nok := parseUint(c.fields[3], maxValueLen)
		if !fok || !nok {
			return nil, 0, false, fmt.Errorf("kv: get %q: bad VALUE line %q", key, line)
		}
		value = make([]byte, n)
		if _, err := io.ReadFull(c.br, value); err != nil {
			return nil, 0, false, err
		}
		if err := expectCRLF(c.br); err != nil {
			return nil, 0, false, err
		}
		flags, ok = uint32(f), true
	}
}

// Delete removes a key; ok reports whether it existed.
func (c *Client) Delete(key string) (ok bool, err error) {
	c.bw.WriteString("delete ")
	c.bw.WriteString(key)
	c.bw.WriteString("\r\n")
	if err := c.bw.Flush(); err != nil {
		return false, err
	}
	line, err := readLine(c.br)
	if err != nil {
		return false, err
	}
	switch string(line) {
	case "DELETED":
		return true, nil
	case "NOT_FOUND":
		return false, nil
	}
	return false, fmt.Errorf("%w: delete %q: server answered %q", ErrRefused, key, line)
}

// Stats fetches the server's stats map.
func (c *Client) Stats() (map[string]string, error) {
	c.bw.WriteString("stats\r\n")
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for {
		line, err := readLine(c.br)
		if err != nil {
			return nil, err
		}
		if string(line) == "END" {
			return out, nil
		}
		fields := strings.SplitN(string(line), " ", 3)
		if len(fields) != 3 || fields[0] != "STAT" {
			return nil, fmt.Errorf("kv: stats: bad line %q", line)
		}
		out[fields[1]] = fields[2]
	}
}
