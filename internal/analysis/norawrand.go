package analysis

import (
	"go/ast"
)

// NoRawRand forbids wall-clock time, raw math/rand and environment
// probing anywhere in module code (tests excluded): the simulation
// packages run under the engine clock, and the host-side layers
// (harness, sweep, resultcache, the CLIs) feed byte-compared artifacts,
// so none of them may branch on host state.
//
// The simulator's clock is the engine's event queue and its only
// sanctioned entropy is internal/rng (a splitmix64 stream that is
// stable across Go releases, unlike math/rand's). Wall-clock reads and
// env-dependent branches make two runs of the same scenario diverge,
// which silently breaks golden grids and paired baseline comparisons.
// Because the scope is the whole module, a read hidden in a helper or
// in a handler closure scheduled onto the engine is reported where it
// is written, whichever package calls it.
var NoRawRand = &Analyzer{
	Name: "norawrand",
	Doc:  "forbid math/rand, time.Now/Since/Until and os env/host reads in module code",
	Why: "sim results must be bit-identical for a given (scenario, seed): goldens, " +
		"paired ablation baselines and parallel sweeps all compare runs byte for byte. " +
		"Randomness must flow through internal/rng (stream-stable across Go versions) " +
		"and time through the sim clock (sim.Engine / Proc.Now).",
	Scope: InModule,
	Run:   runNoRawRand,
}

func runNoRawRand(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range importsOf(f, "math/rand", "math/rand/v2") {
			pass.Reportf(imp.Pos(),
				"import of %s in module code: its stream is not stable across Go releases; use internal/rng", importPath(imp))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := isPkgLevelCall(pass.Info, call, "time", "Now", "Since", "Until"); ok {
				pass.Reportf(call.Pos(),
					"call to time.%s in module code: wall-clock time is nondeterministic; use the sim clock (Proc.Now / Engine time)", name)
			}
			if name, ok := isPkgLevelCall(pass.Info, call, "os", "Getenv", "LookupEnv", "Environ", "Hostname"); ok {
				pass.Reportf(call.Pos(),
					"call to os.%s in module code: host-dependent behavior breaks run pairing; thread configuration through scenario options", name)
			}
			return true
		})
	}
}
