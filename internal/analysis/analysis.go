// Package analysis is a small, dependency-free static-analysis framework
// plus the determinism-lint analyzers ("wfvet") that mechanically enforce
// this repository's bit-identical simulation contract.
//
// Every result the repo produces — golden grids, paired failure/outage
// baselines, 1-vs-N parallel sweeps — relies on runs being byte-identical
// given the same scenario and seed. The analyzers in this package turn
// that contract into a compile-time gate: no wall-clock time, env reads
// or raw math/rand in module code, no order-sensitive work inside map
// iteration, no ad-hoc seeds outside the packages that own seed
// derivation, and no host-scheduler concurrency inside the event loop.
// Every rule looks at one function at a time; the run-time goldens and
// determinism smokes catch what crosses calls.
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so the
// analyzers could be ported to a stock multichecker later, but it is
// built on the standard library only: the toolchain image this repo
// builds in has no module proxy access, and the lint must be runnable
// anywhere `go build ./...` is.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one determinism rule: how to find violations and
// why the rule exists. Analyzers are stateless; Run may be called
// concurrently for different passes.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics, in
	// //wfvet:ignore comments, and in the -catalog listing. Lowercase,
	// no spaces.
	Name string

	// Doc is a one-line synopsis of what the analyzer reports.
	Doc string

	// Why explains the determinism rationale — what breaks (goldens,
	// seed pairing, parallel-vs-serial equality) when the rule is
	// violated. Shown by `wfvet -catalog`.
	Why string

	// Scope reports whether the rule applies to the package with the
	// given canonical import path. A nil Scope applies everywhere in
	// the module.
	Scope func(pkgPath string) bool

	// Run inspects one package and reports violations via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package is the unit of analysis: a parsed, type-checked package. Info
// must carry Types, Defs, Uses and Selections for the analyzers to
// resolve callees and operand types.
type Package struct {
	// PkgPath is the canonical import path used for Scope decisions. In
	// tests, fixture packages are checked under the path of the real
	// module package they masquerade as.
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info
}

// IgnoreDirective is one parsed //wfvet:ignore comment.
type IgnoreDirective struct {
	Pos      token.Pos
	Line     int
	Analyzer string // rule name being suppressed ("" if malformed)
	Reason   string // justification ("" if missing — malformed)
}

// ignoreMarker introduces a suppression comment:
//
//	//wfvet:ignore <analyzer> <reason...>
//
// The reason is mandatory. A directive suppresses findings of the named
// analyzer on its own line (trailing comment) and on the line
// immediately below (comment-above form).
const ignoreMarker = "//wfvet:ignore"

// ParseIgnores extracts every //wfvet:ignore directive in file,
// including malformed ones (validated by the wfdirective analyzer).
func ParseIgnores(fset *token.FileSet, file *ast.File) []IgnoreDirective {
	var out []IgnoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignoreMarker) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignoreMarker)
			// Cut at an embedded "// want": analysistest fixtures
			// annotate expected findings on the directive's own line.
			if i := strings.Index(rest, "// want"); i >= 0 {
				rest = rest[:i]
			}
			d := IgnoreDirective{Pos: c.Pos(), Line: fset.Position(c.Pos()).Line}
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				d.Analyzer = fields[0]
			}
			if len(fields) >= 2 {
				d.Reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// suppressed reports whether diagnostic d is covered by an ignore
// directive: same analyzer, positioned on d's line or the line above,
// and carrying a reason (malformed directives suppress nothing).
func suppressed(d Diagnostic, line int, ignores []IgnoreDirective) bool {
	for _, ig := range ignores {
		if ig.Analyzer != d.Analyzer || ig.Reason == "" {
			continue
		}
		if ig.Line == line || ig.Line == line-1 {
			return true
		}
	}
	return false
}

// RunPackage runs every analyzer whose Scope covers pkg and returns the
// surviving diagnostics, sorted by position. Findings silenced by a
// well-formed //wfvet:ignore are dropped here, so the driver and the
// tests get identical suppression semantics.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	ignores := make(map[string][]IgnoreDirective, len(pkg.Files))
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		ignores[name] = append(ignores[name], ParseIgnores(pkg.Fset, f)...)
	}

	var kept []Diagnostic
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(pkg.PkgPath) {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
		pass.report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if suppressed(d, pos.Line, ignores[pos.Filename]) {
				return
			}
			kept = append(kept, d)
		}
		a.Run(pass)
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(kept[i].Pos), pkg.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return dedupe(pkg.Fset, kept)
}

// dedupe drops diagnostics that duplicate an earlier one at the same
// source position with the same message: nested map ranges make
// maporder report an append in the inner loop once per enclosing range,
// and the user needs the finding once. The input must be position-sorted (RunPackage's
// order), so duplicates are adjacent up to the analyzer name.
func dedupe(fset *token.FileSet, ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if n := len(out); n > 0 {
			prev := out[n-1]
			if prev.Message == d.Message && fset.Position(prev.Pos) == fset.Position(d.Pos) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}
