package kona_test

// End-to-end tests for the command-line tools, exercised the way a user
// would run them. Guarded by -short (each `go run` compiles).

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kona/internal/cllog"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"run"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIKonaBench(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the tools")
	}
	list := runCLI(t, "./cmd/kona-bench", "-list")
	for _, id := range []string{"table2", "fig7", "fig11c", "abl-fetchgran", "ext-e2e"} {
		if !strings.Contains(list, id) {
			t.Errorf("kona-bench -list missing %s", id)
		}
	}
	outFile := filepath.Join(t.TempDir(), "res.txt")
	out := runCLI(t, "./cmd/kona-bench", "-run", "fig11c", "-quick", "-plot", "-out", outFile)
	if !strings.Contains(out, "Copy %") {
		t.Errorf("fig11c output missing breakdown:\n%s", out)
	}
	saved, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(saved), "Copy %") {
		t.Errorf("-out file missing content")
	}
}

// TestCLIMemnodeCapacityBound: a pool the cache-line log cannot address
// is refused at start-up, before any memory is registered.
func TestCLIMemnodeCapacityBound(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the tools")
	}
	capacity := strconv.FormatUint(cllog.MaxRegion+64, 10)
	out, err := exec.Command("go", "run", "./cmd/kona-memnode", "-capacity", capacity).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "line-index limit") {
		t.Fatalf("kona-memnode -capacity %s: err=%v, want a refusal naming the line-index limit\n%s", capacity, err, out)
	}
}

func TestCLIKonaTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the tools")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.ktr.gz")
	gen := runCLI(t, "./cmd/kona-trace", "-workload", "Redis-Seq", "-out", tracePath, "-max", "20000")
	if !strings.Contains(gen, "wrote 20000 records") {
		t.Fatalf("generate output: %s", gen)
	}
	insp := runCLI(t, "./cmd/kona-trace", "-inspect", tracePath)
	if !strings.Contains(insp, "20000 records") {
		t.Errorf("inspect output: %s", insp)
	}
	rep := runCLI(t, "./cmd/kona-trace", "-replay", tracePath, "-footprint", "8388608", "-max", "8000")
	if !strings.Contains(rep, "speedup") {
		t.Errorf("replay output: %s", rep)
	}
	if !strings.Contains(runCLI(t, "./cmd/kona-trace", "-list"), "PageRank-Algo") {
		t.Errorf("trace -list missing extras")
	}
}
