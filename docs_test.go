package kona_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// citedName matches a test, benchmark or fuzz target named in prose. A
	// name wrapped across a line break with a hyphen ("TestFooBar-\nBaz")
	// keeps the hyphen and the next line's word; a trailing "*" makes the
	// name a prefix glob ("BenchmarkAblation*").
	citedName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*(?:-\n[ \t>]*\w+|\*)?`)
	// declaredName matches a top-level test function declaration.
	declaredName = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDesignCitesLiveTests keeps the documents' proof surface honest:
// every Test…, Benchmark… or Fuzz… name that DESIGN.md, README.md or
// EXPERIMENTS.md cites must be declared by some _test.go in the repository
// (a glob like BenchmarkAblation* by at least one). A renamed or deleted
// test leaves its citations behind; this test names them.
func TestDesignCitesLiveTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaredName.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited := 0
		for _, name := range citedName.FindAllString(string(text), -1) {
			cited++
			if prefix, glob := strings.CutSuffix(name, "*"); glob {
				if !anyWithPrefix(declared, prefix) {
					t.Errorf("%s cites %s, and no test name starts with %s", doc, name, prefix)
				}
				continue
			}
			if i := strings.Index(name, "-\n"); i >= 0 {
				name = name[:i] + strings.TrimLeft(name[i+2:], " \t>")
			}
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
		if cited == 0 {
			t.Errorf("%s cites no test: the scan is broken", doc)
		}
	}
}

func anyWithPrefix(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
