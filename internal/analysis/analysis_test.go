package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fx.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestParseIgnores(t *testing.T) {
	fset, f := parseOne(t, `package p

//wfvet:ignore maporder keys sorted by caller
var a int

//wfvet:ignore norawrand
var b int

//wfvet:ignore
var c int
`)
	got := ParseIgnores(fset, f)
	if len(got) != 3 {
		t.Fatalf("got %d directives, want 3", len(got))
	}
	if got[0].Analyzer != "maporder" || got[0].Reason != "keys sorted by caller" || got[0].Line != 3 {
		t.Errorf("directive 0 = %+v", got[0])
	}
	if got[1].Analyzer != "norawrand" || got[1].Reason != "" {
		t.Errorf("directive 1 = %+v", got[1])
	}
	if got[2].Analyzer != "" {
		t.Errorf("directive 2 = %+v", got[2])
	}
}

// fakeAnalyzer reports one diagnostic at every var declaration, which
// gives the suppression tests precise line control without type info.
var fakeAnalyzer = &Analyzer{
	Name: "fake",
	Doc:  "test-only",
	Why:  "test-only",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if vs, ok := n.(*ast.ValueSpec); ok {
					pass.Reportf(vs.Pos(), "var at line %d", pass.Fset.Position(vs.Pos()).Line)
				}
				return true
			})
		}
	},
}

func runFake(t *testing.T, src string) []Diagnostic {
	t.Helper()
	fset, f := parseOne(t, src)
	pkg := &Package{PkgPath: ModulePath + "/internal/fx", Fset: fset, Files: []*ast.File{f}}
	return RunPackage(pkg, []*Analyzer{fakeAnalyzer})
}

func TestSuppressionCoversSameAndNextLine(t *testing.T) {
	diags := runFake(t, `package p

//wfvet:ignore fake above-line form
var a int

var b int //wfvet:ignore fake trailing form

var c int
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (only c): %+v", len(diags), diags)
	}
	if diags[0].Message != "var at line 8" {
		t.Errorf("surviving diagnostic = %+v, want the one for c", diags[0])
	}
}

func TestReasonlessDirectiveSuppressesNothing(t *testing.T) {
	diags := runFake(t, `package p

//wfvet:ignore fake
var a int
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (reason-less ignore must not suppress)", len(diags))
	}
}

func TestWrongAnalyzerDirectiveSuppressesNothing(t *testing.T) {
	diags := runFake(t, `package p

//wfvet:ignore maporder not the analyzer that fired
var a int
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (name mismatch must not suppress)", len(diags))
	}
}

func TestScopes(t *testing.T) {
	cases := []struct {
		path                string
		sim, seedOwner, mod bool
	}{
		{ModulePath + "/internal/sim", true, false, true},
		{ModulePath + "/internal/flow", true, false, true},
		{ModulePath + "/internal/eventlog", true, false, true},
		{ModulePath + "/cmd/wfreplay", true, false, true},
		{ModulePath + "/internal/scenario", true, true, true},
		{ModulePath + "/internal/rng", false, true, true},
		{ModulePath + "/internal/sweep", false, false, true},
		{ModulePath + "/internal/harness", false, false, true},
		{ModulePath + "/internal/resultcache", false, false, true},
		{ModulePath + "/internal/storage/sub", true, false, true},
		{ModulePath + "/cmd/wfsim", false, false, true},
		{ModulePath, false, false, true},
		{ModulePath + "/internal/analysis", false, false, false},
		{ModulePath + "/internal/analysis/driver", false, false, false},
		{ModulePath + "/internal/harness/testdata/fx", false, false, false},
		{ModulePath + "/internal/simulator", false, false, true}, // prefix, not a path segment
		{"fmt", false, false, false},
	}
	for _, c := range cases {
		if got := inSimPackage(c.path); got != c.sim {
			t.Errorf("inSimPackage(%q) = %v, want %v", c.path, got, c.sim)
		}
		if got := isSeedOwner(c.path); got != c.seedOwner {
			t.Errorf("isSeedOwner(%q) = %v, want %v", c.path, got, c.seedOwner)
		}
		if got := InModule(c.path); got != c.mod {
			t.Errorf("InModule(%q) = %v, want %v", c.path, got, c.mod)
		}
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	diags := runFake(t, `package p

var b int
var a int
var c int
`)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		if diags[i-1].Pos > diags[i].Pos {
			t.Errorf("diagnostics out of positional order: %+v", diags)
		}
	}
}
