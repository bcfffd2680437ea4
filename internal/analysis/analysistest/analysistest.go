// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against `// want "regexp"` annotations, in the
// style of golang.org/x/tools/go/analysis/analysistest but built on the
// repo's own framework and loader.
//
// Fixture layout: testdata/src/<fixture>/*.go relative to the calling
// test's package directory. A line expecting diagnostics carries a
// trailing comment with one double-quoted regexp per expected finding:
//
//	total += v // want `floating-point accumulation`
//	rand.NewSource(1) // want "ad-hoc" "second finding on this line"
//
// Both "..." and `...` quoting are accepted. Fixtures are type-checked
// for real (imports resolved through `go list -export`), so they must
// compile; suppressed findings are filtered exactly as in production,
// letting fixtures exercise //wfvet:ignore behavior.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ec2wfsim/internal/analysis"
	"ec2wfsim/internal/analysis/driver"
)

// expectation is one `// want` regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run analyzes testdata/src/<fixture> as if it were the package with
// import path asImportPath (scope rules are path-based, so fixtures
// masquerade as real module packages) and asserts its diagnostics match
// the fixture's `// want` annotations exactly.
func Run(t *testing.T, a *analysis.Analyzer, fixture, asImportPath string) {
	t.Helper()
	pkg, err := driver.LoadDir(filepath.Join("testdata", "src", fixture), asImportPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags := analysis.RunPackage(pkg, []*analysis.Analyzer{a})

	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatalf("parsing want annotations in %s: %v", fixture, err)
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !consume(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// wantRe matches one quoted regexp in a want comment: "..." or `...`.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// parseWants extracts every `// want` annotation from the fixture.
func parseWants(pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := c.Text[idx+len("// want "):]
				quoted := wantRe.FindAllString(rest, -1)
				if len(quoted) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					var pat string
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

// consume marks the first unmet expectation matching (file, line,
// message) as met.
func consume(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.met && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.met = true
			return true
		}
	}
	return false
}

// FixtureExists reports whether the fixture directory contains Go
// files; used by the rule-catalog completeness test.
func FixtureExists(fixture string) bool {
	names, err := filepath.Glob(filepath.Join("testdata", "src", fixture, "*.go"))
	return err == nil && len(names) > 0
}

// FixtureHasWants reports whether any fixture file carries a `// want`
// annotation.
func FixtureHasWants(fixture string) (bool, error) {
	names, err := filepath.Glob(filepath.Join("testdata", "src", fixture, "*.go"))
	if err != nil {
		return false, err
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return false, err
		}
		if strings.Contains(string(data), "// want ") {
			return true, nil
		}
	}
	return false, nil
}
