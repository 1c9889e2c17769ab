package cluster

import (
	"errors"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kona/internal/telemetry"
)

// goldenKinds pins every request kind's wire byte, name, replay safety and
// epoch fencing. Bytes are wire format (append only, never renumber), and
// names are telemetry: bench's read_amp, write_amp and rtts_per_op read
// cluster.memnode.tx_bytes.read, served.* and their kin by these names.
var goldenKinds = []struct {
	b                 byte
	name              string
	retryable, fenced bool
}{
	{1, "register-node", false, false},
	{2, "alloc-slab", true, false},
	{3, "node-addr", true, false},
	{4, "read", true, true},
	{5, "read-pages", true, true},
	{6, "write", true, true},
	{7, "write-log", false, true},
	{8, "release-slab", false, false},
	{9, "ping", true, false},
	{10, "slab-placements", true, false},
	{11, "report-failure", true, false},
	{12, "report-load", true, false},
	{13, "capture-start", true, true},
	{14, "capture-drain", false, true},
	{15, "capture-stop", true, true},
	{16, "seal-extent", true, true},
	{17, "unseal-extent", true, true},
	{18, "lease-acquire", true, false},
	{19, "lease-renew", true, false},
	{20, "lease-release", true, false},
	{21, "lease-invalidate", true, false},
	{22, "lease-fence", true, true},
	{23, "release-extent", true, true},
}

func TestKindTable(t *testing.T) {
	if len(kinds) != len(goldenKinds)+1 {
		t.Fatalf("kinds has %d rows, want kindInvalid plus %d", len(kinds), len(goldenKinds))
	}
	for _, g := range goldenKinds {
		if got, want := kinds[g.b], (kindInfo{g.name, g.retryable, g.fenced}); got != want {
			t.Errorf("kind %d = %+v, want %+v", g.b, got, want)
		}
	}
	// No holes, unique names.
	seen := map[string]bool{}
	for k := kindInvalid + 1; int(k) < len(kinds); k++ {
		if name := kinds[k].name; name == "" || seen[name] {
			t.Errorf("kind %d: name %q is a hole or a duplicate", k, name)
		}
		seen[kinds[k].name] = true
	}
	// The bytes either side of the table are refused.
	hdr := appendRequestHeader(nil, &Request{})
	for _, k := range []kind{kindInvalid, kind(len(kinds))} {
		if err := decodeRequestHeader(k, hdr, new(Request)); err == nil {
			t.Errorf("request kind 0x%02x decoded", byte(k))
		}
	}

	// A live client and both daemons register exactly the per-kind names
	// they always have.
	want := []string{
		"cluster.rpc.dials", "cluster.rpc.failures", "cluster.rpc.payload_copies",
		"cluster.rpc.redials", "cluster.rpc.retries",
	}
	for _, g := range goldenKinds {
		want = append(want, "cluster.rpc."+g.name+".latency_us",
			"cluster.rpc.tx_bytes."+g.name, "cluster.rpc.rx_bytes."+g.name)
		for _, role := range []string{"controller", "memnode"} {
			for _, what := range []string{"served", "tx_bytes", "rx_bytes"} {
				want = append(want, "cluster."+role+"."+what+"."+g.name)
			}
		}
	}
	reg := telemetry.New(0)
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := ServeControllerOnWith(NewController(), cl, reg)
	defer cs.Close()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns := ServeMemoryNodeOnWith(NewMemoryNode(0, 1<<20), nl, reg)
	defer ns.Close()
	mc := DialMemoryNodeTransport(ns.Addr(), Transport{Metrics: reg})
	defer mc.Close()
	if err := mc.Ping(); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	var got []string
	keep := func(name string) {
		if strings.HasPrefix(name, "cluster.rpc.") || perKindServerName(name) {
			got = append(got, name)
		}
	}
	for name := range s.Counters {
		keep(name)
	}
	for name := range s.Histograms {
		keep(name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered names differ:\n got %v\nwant %v", got, want)
	}
}

// perKindServerName reports whether name is a daemon's per-kind counter.
func perKindServerName(name string) bool {
	for _, role := range []string{"controller", "memnode"} {
		for _, what := range []string{"served", "tx_bytes", "rx_bytes"} {
			if strings.HasPrefix(name, "cluster."+role+"."+what+".") {
				return true
			}
		}
	}
	return false
}

// TestRemoteErrorTypedByStatusNotText: a refusal is typed by the status
// that came with it, never by its text.
func TestRemoteErrorTypedByStatusNotText(t *testing.T) {
	plain := &RemoteError{Msg: "memnode 0: write [0,+64) by runtime 0: extent sealed for migration"}
	if errors.Is(plain, ErrSealed) {
		t.Fatal("an untyped RemoteError matched ErrSealed by its text")
	}
	typed := &RemoteError{Msg: "refused", status: statusOf(ErrSealed)}
	if !errors.Is(typed, ErrSealed) || errors.Is(typed, ErrLeaseFenced) {
		t.Fatal("a sealed RemoteError is not exactly ErrSealed")
	}
}
