package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// SeedFlow enforces the seed-derivation layering: internal/rng defines
// the generator and internal/scenario owns how seeds are derived and
// salted per experiment cell. Everywhere else, constructing a generator
// from a literal seed, planting a constant in a *Seed field of a
// simulation-package struct, or reaching for math/rand's sources at all
// creates a stream that is not paired with the scenario's seed schedule,
// so baseline/treatment runs stop sharing randomness and paired deltas
// turn into noise.
//
// The idiomatic zero-guard default
//
//	if opts.FailureSeed == 0 { opts.FailureSeed = DefaultFailureSeed }
//
// is exempt: it fills a documented fallback only when the scenario did
// not supply a seed, which keeps pairing intact for every configured
// run. So is an explicit zero in a literal, the "use the default" value.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "flag literal rng seeds, constant *Seed fields and ad-hoc math/rand sources outside internal/rng and internal/scenario",
	Why: "paired ablations (failures on/off, outages on/off) rely on both runs drawing " +
		"the same per-task randomness from scenario-derived seeds. A literal or ad-hoc " +
		"seed creates an unpaired stream and silently decorrelates the comparison.",
	Scope: func(pkgPath string) bool { return !isSeedOwner(pkgPath) },
	Run:   runSeedFlow,
}

func runSeedFlow(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			var guards []guardRange
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				guards = zeroGuardRanges(pass.Info, fn.Body)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.CallExpr:
					checkSeedCall(pass, st)
				case *ast.AssignStmt:
					checkSeedFieldAssign(pass, st, guards)
				case *ast.CompositeLit:
					checkSeedFieldLit(pass, st)
				}
				return true
			})
		}
	}
}

// checkSeedCall flags math/rand source constructors and rng.New with a
// constant seed.
func checkSeedCall(pass *Pass, call *ast.CallExpr) {
	for _, randPkg := range []string{"math/rand", "math/rand/v2"} {
		if name, ok := isPkgLevelCall(pass.Info, call, randPkg,
			"New", "NewSource", "Seed", "NewPCG", "NewChaCha8", "NewZipf"); ok {
			pass.Reportf(call.Pos(),
				"ad-hoc %s.%s: seed derivation belongs to internal/rng + internal/scenario (scenario-salted splitmix64 streams)", randPkg, name)
		}
	}
	if _, ok := isPkgLevelCall(pass.Info, call, ModulePath+"/internal/rng", "New"); ok && len(call.Args) == 1 {
		if constValue(pass.Info, call.Args[0]) != nil {
			pass.Reportf(call.Pos(),
				"rng.New with a literal seed: constant seeds bypass scenario salting and break seed pairing; derive the seed from the scenario (Spec seeds / rng.Fork)")
		}
	}
}

// checkSeedFieldAssign flags constant writes to *Seed fields of
// simulation-package structs outside a zero-guard.
func checkSeedFieldAssign(pass *Pass, st *ast.AssignStmt, guards []guardRange) {
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		field, ok := seedFieldSel(pass.Info, lhs)
		if !ok {
			continue
		}
		v := constValue(pass.Info, st.Rhs[i])
		if v == nil || guardedZeroDefault(guards, st.Pos(), field) {
			continue
		}
		pass.Reportf(st.Pos(),
			"constant seed %s assigned to %s: fixed seeds bypass scenario salting; take the seed from scenario options (a zero-guarded default `if x.%s == 0` is the sanctioned fallback shape)",
			v.ExactString(), field, field[strings.IndexByte(field, '.')+1:])
	}
}

// checkSeedFieldLit flags non-zero constant seeds planted in composite
// literals (`wms.Faults{FailureSeed: 0x1234}`). An explicit zero is the
// "use the default" convention and stays silent.
func checkSeedFieldLit(pass *Pass, lit *ast.CompositeLit) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		field, ok := seedFieldKey(pass.Info, kv)
		if !ok {
			continue
		}
		v := constValue(pass.Info, kv.Value)
		if v == nil || v.ExactString() == "0" {
			continue
		}
		pass.Reportf(kv.Pos(),
			"constant seed %s assigned to %s: fixed seeds bypass scenario salting; take the seed from scenario options",
			v.ExactString(), field)
	}
}

// guardRange records the body span of one `if x.FooSeed == 0 { ... }`
// statement and which field it guards.
type guardRange struct {
	field  string
	lo, hi token.Pos
}

// zeroGuardRanges collects the zero-guard if-statements in body: a
// condition comparing a seed field against zero (the documented
// default-fallback idiom). Assignments to the same field inside the
// guarded block are exempt from the constant-seed check.
func zeroGuardRanges(info *types.Info, body *ast.BlockStmt) []guardRange {
	var out []guardRange
	ast.Inspect(body, func(n ast.Node) bool {
		ifst, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		be, ok := ast.Unparen(ifst.Cond).(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			return true
		}
		var fieldExpr ast.Expr
		switch {
		case isZeroConst(info, be.Y):
			fieldExpr = be.X
		case isZeroConst(info, be.X):
			fieldExpr = be.Y
		default:
			return true
		}
		if field, ok := seedFieldSel(info, fieldExpr); ok {
			out = append(out, guardRange{field: field, lo: ifst.Body.Pos(), hi: ifst.Body.End()})
		}
		return true
	})
	return out
}

func isZeroConst(info *types.Info, e ast.Expr) bool {
	v := constValue(info, e)
	return v != nil && v.ExactString() == "0"
}

// guardedZeroDefault reports whether pos falls inside the guarded block
// of a zero-guard for field.
func guardedZeroDefault(guards []guardRange, pos token.Pos, field string) bool {
	for _, g := range guards {
		if g.field == field && g.lo <= pos && pos < g.hi {
			return true
		}
	}
	return false
}

// seedFieldSel reports whether e selects a raw-seed-carrying field (see
// seedField), returning its "pkg.Field" description.
func seedFieldSel(info *types.Info, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	field, ok := info.Selections[sel]
	if !ok || field.Kind() != types.FieldVal {
		return "", false
	}
	return seedField(field.Obj())
}

// seedFieldKey resolves a composite-literal key to a seed field.
func seedFieldKey(info *types.Info, kv *ast.KeyValueExpr) (string, bool) {
	id, ok := kv.Key.(*ast.Ident)
	if !ok {
		return "", false
	}
	return seedField(info.Uses[id])
}

// seedField reports whether obj is a field whose name ends in "Seed" on
// a struct defined in an event-loop simulation package other than the
// seed owners (internal/scenario may carry experiment master seeds).
func seedField(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Name(), "Seed") {
		return "", false
	}
	path := obj.Pkg().Path()
	if !inSimPackage(path) || isSeedOwner(path) {
		return "", false
	}
	return obj.Pkg().Name() + "." + obj.Name(), true
}

// constValue returns the constant value of e when the type checker
// folded it to one, else nil.
func constValue(info *types.Info, e ast.Expr) constant.Value {
	if tv, ok := info.Types[e]; ok {
		return tv.Value
	}
	return nil
}
