// Package driver loads, type-checks and analyzes packages for wfvet.
//
// It shells out to `go list -deps -export` to enumerate the target
// packages and obtain compiler export data for everything they import,
// then parses and type-checks each target from source on its own. Every
// rule looks at one function at a time, so imports resolve through the
// standard library's gc importer — the same reader the compiler itself
// uses — and no third-party loader is required.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"ec2wfsim/internal/analysis"
)

// listPackage is the subset of `go list -json` output the driver needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string // non-test sources only
	Match      []string // patterns this package matched (targets only)
}

// goList enumerates the packages matching patterns plus their deps
// (for export data) by invoking `go list` in dir.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Match"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer resolving import paths
// through the export data files of pkgs. The importer caches packages
// across calls, so one instance should serve every type-check in a run.
func exportImporter(fset *token.FileSet, pkgs []*listPackage) types.Importer {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typeCheck type-checks already-parsed files as package pkgPath,
// producing the analysis view of the package.
func typeCheck(fset *token.FileSet, imp types.Importer, pkgPath string, files []*ast.File) (*analysis.Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	conf.Check(pkgPath, fset, files, info)
	if typeErr != nil {
		return nil, typeErr
	}
	return &analysis.Package{PkgPath: pkgPath, Fset: fset, Files: files, Info: info}, nil
}

func parseFile(fset *token.FileSet, name string) (*ast.File, error) {
	return parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
}

// Finding is one diagnostic in driver output form. File paths are
// slash-separated and relative to the analysis root whenever they fall
// under it.
type Finding struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the canonical go-vet-style line.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Analyze runs the rule catalog (analysis.Rules) over every module
// package (analysis.InModule) matching patterns, resolved in dir. Test
// files are not analyzed: the determinism contract binds simulation
// code; tests legitimately use goroutines, wall clocks and literal
// seeds to exercise it. Findings come back sorted by package path, then
// position.
func Analyze(dir string, patterns []string) ([]Finding, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var targets []*listPackage
	for _, p := range pkgs {
		if len(p.Match) > 0 && len(p.GoFiles) > 0 && analysis.InModule(p.ImportPath) {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	rules := analysis.Rules()
	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs)
	absDir, _ := filepath.Abs(dir)
	var findings []Finding
	for _, p := range targets {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parseFile(fset, filepath.Join(p.Dir, name))
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := typeCheck(fset, imp, p.ImportPath, files)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		for _, d := range analysis.RunPackage(pkg, rules) {
			pos := fset.Position(d.Pos)
			file := pos.Filename
			if rel, err := filepath.Rel(absDir, file); err == nil && filepath.IsLocal(rel) {
				file = filepath.ToSlash(rel)
			}
			findings = append(findings, Finding{Rule: d.Analyzer, File: file, Line: pos.Line, Col: pos.Column, Message: d.Message})
		}
	}
	return findings, nil
}

// LoadDir parses every .go file in dir and type-checks them as one
// package with import path pkgPath, resolving imports through export
// data. It is the test harness's loader: fixture packages masquerade as
// real module packages, because the rule scopes are path-based.
func LoadDir(dir, pkgPath string) (*analysis.Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	var files []*ast.File
	var imports []string
	for _, name := range names {
		f, err := parseFile(fset, name)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			if p, _ := strconv.Unquote(spec.Path.Value); p != "unsafe" {
				imports = append(imports, p)
			}
		}
	}
	var pkgs []*listPackage
	if len(imports) > 0 {
		if pkgs, err = goList(".", imports); err != nil {
			return nil, err
		}
	}
	return typeCheck(fset, exportImporter(fset, pkgs), pkgPath, files)
}
