package driver

import (
	"os"
	"path/filepath"
	"testing"

	"ec2wfsim/internal/analysis"
)

// TestAnalyzeCleanPackage drives the whole pipeline — go list,
// export-data loading, source type-checking, rule run — over real
// module packages, which must come out clean (the tree-wide guarantee
// CI enforces).
func TestAnalyzeCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	findings, err := Analyze("../../..", []string{"./internal/rng", "./internal/flow"})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestAnalyzeReportsFinding runs the pipeline over a throwaway module
// that shares this module's path: the wall-clock read is reported with
// a root-relative path, and its test file is not analyzed.
func TestAnalyzeReportsFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module "+analysis.ModulePath+"\n\ngo 1.24\n")
	write("internal/stamp/stamp.go", "package stamp\n\nimport \"time\"\n\nfunc Now() int64 { return time.Now().Unix() }\n")
	write("internal/stamp/stamp_test.go", "package stamp\n\nimport \"time\"\n\nvar _ = time.Now()\n")

	findings, err := Analyze(root, []string{"./..."})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Rule != "norawrand" || f.File != "internal/stamp/stamp.go" || f.Line != 5 {
		t.Errorf("finding = %s, want norawrand at internal/stamp/stamp.go:5", f)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Rule: "maporder", File: "a.go", Line: 3, Col: 7, Message: "m"}
	if got, want := f.String(), "a.go:3:7: [maporder] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
