package kona_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	// selectorFlag matches a -run, -bench or -fuzz pattern on a go test
	// command line, quoted or bare.
	selectorFlag = regexp.MustCompile(`-(run|bench|fuzz)[= ](?:'([^']*)'|(\S+))`)
)

// declaredTests maps every Test…, Benchmark… and Fuzz… function a
// _test.go in the repository declares to the directories declaring it.
func declaredTests(t *testing.T) map[string][]string {
	t.Helper()
	declared := map[string][]string{}
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
			declared[string(m[1])] = append(declared[string(m[1])], filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// TestDesignCitesLiveTests keeps the documents' proof surface honest:
// every Test…, Benchmark… or Fuzz… name that DESIGN.md, README.md or
// EXPERIMENTS.md cites must be declared by some _test.go in the repository
// (a glob like BenchmarkAblation* by at least one). A renamed or deleted
// test leaves its citations behind; this test names them.
func TestDesignCitesLiveTests(t *testing.T) {
	declared := declaredTests(t)
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
			if declared[name] == nil {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
		if cited == 0 {
			t.Errorf("%s cites no test: the scan is broken", doc)
		}
	}
}

// designMaxLines is DESIGN.md's length ceiling. The document may only
// shrink: a change that adds lines to it deletes at least as many. Lower
// the constant when the document gets shorter.
const designMaxLines = 2236

// TestDesignOnlyShrinks holds DESIGN.md to designMaxLines lines.
func TestDesignOnlyShrinks(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(text), "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, more than designMaxLines = %d: shorten it", n, designMaxLines)
	}
}

// TestMakefileRunsLiveTests keeps the Makefile's selections honest: each
// |-separated alternative of every -run, -bench and -fuzz pattern on a go
// test line (bar the match-nothing ^$) must match a function of its kind
// declared in one of the packages that line tests. go test passes silently
// when an alternative matches nothing, so a renamed guard would otherwise
// drop out of make guards, bench-wire or chaos unseen.
func TestMakefileRunsLiveTests(t *testing.T) {
	declared := declaredTests(t)
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{"run": {"Test", "Fuzz"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	selections := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(src), "\\\n", " "), "\n") {
		if !strings.Contains(line, "$(GO) test") {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, filepath.Clean(f))
			}
		}
		for _, m := range selectorFlag.FindAllStringSubmatch(line, -1) {
			pattern := m[2] + m[3]
			if pattern == "^$$" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				selections++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile -%s %q: %v", m[1], alt, err)
					continue
				}
				if !selectsDeclared(declared, re, kinds[m[1]], pkgs) {
					t.Errorf("Makefile -%s %q selects no %s in %v", m[1], alt, strings.Join(kinds[m[1]], "/"), pkgs)
				}
			}
		}
	}
	if selections == 0 {
		t.Error("found no -run, -bench or -fuzz selection in the Makefile: the scan is broken")
	}
}

// selectsDeclared reports whether re matches a function whose name has one
// of the prefixes and that one of pkgs declares.
func selectsDeclared(declared map[string][]string, re *regexp.Regexp, prefixes, pkgs []string) bool {
	for name, dirs := range declared {
		if !re.MatchString(name) || !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) }) {
			continue
		}
		for _, d := range dirs {
			if slices.Contains(pkgs, d) {
				return true
			}
		}
	}
	return false
}

func anyWithPrefix(names map[string][]string, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
