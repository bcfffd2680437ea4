package analysis

import "strings"

// ModulePath is the import-path prefix of this repository's module.
// The analyzers are repo-specific lint (they encode this simulator's
// layering), so hardcoding the module path is deliberate: scope rules
// read as plain package lists.
const ModulePath = "ec2wfsim"

// simPackages are the event-loop simulation packages: everything that
// executes under the deterministic engine clock. Inside them, all
// randomness must flow through internal/rng, all time through the sim
// clock, and all concurrency through the engine (real parallelism
// belongs to internal/sweep, which runs whole simulations side by side).
var simPackages = map[string]bool{
	"internal/sim":      true,
	"internal/flow":     true,
	"internal/wms":      true,
	"internal/storage":  true,
	"internal/disk":     true,
	"internal/cluster":  true,
	"internal/outage":   true,
	"internal/apps":     true,
	"internal/staging":  true,
	"internal/workflow": true,
	"internal/scenario": true,
	"internal/eventlog": true,
	"cmd/wfreplay":      true,
}

// seedOwners are the packages allowed to construct generators from raw
// seed material: internal/rng defines the generator, internal/scenario
// owns seed derivation and per-cell salting.
var seedOwners = map[string]bool{
	"internal/rng":      true,
	"internal/scenario": true,
}

// rel strips the module prefix from a canonical import path, returning
// "" for the module root and the path unchanged when it is outside the
// module (stdlib, etc.).
func rel(pkgPath string) string {
	if pkgPath == ModulePath {
		return ""
	}
	if p, ok := strings.CutPrefix(pkgPath, ModulePath+"/"); ok {
		return p
	}
	return pkgPath
}

// under reports whether pkgPath is (inside) one of the module-relative
// directories in dirs.
func under(pkgPath string, dirs map[string]bool) bool {
	p := rel(pkgPath)
	for dir := range dirs {
		if p == dir || strings.HasPrefix(p, dir+"/") {
			return true
		}
	}
	return false
}

// inSimPackage reports whether pkgPath is (inside) one of the
// event-loop simulation packages.
func inSimPackage(pkgPath string) bool { return under(pkgPath, simPackages) }

// isSeedOwner reports whether pkgPath is (inside) a package that may
// construct generators from raw seeds.
func isSeedOwner(pkgPath string) bool { return under(pkgPath, seedOwners) }

// InModule reports whether pkgPath belongs to this module at all, and
// excludes the lint tooling itself plus test fixtures: the analyzers
// necessarily name the very identifiers they hunt for. The driver
// analyzes exactly these packages.
func InModule(pkgPath string) bool {
	if pkgPath != ModulePath && !strings.HasPrefix(pkgPath, ModulePath+"/") {
		return false
	}
	p := rel(pkgPath)
	return p != "internal/analysis" && !strings.HasPrefix(p, "internal/analysis/") &&
		!strings.Contains(p, "testdata")
}
