// Package scenario is the composable experiment-description layer: one
// Spec names everything a single simulation run can vary (application,
// storage, cluster shape, seeds, failure injection, node outages,
// checkpointing), and a registry of self-describing option groups
// declares — once, per group — how those fields appear in the
// canonical memoization key, which of them participate in the
// seed-pairing hash, how replicates reseed them and which CLI flags
// they register. Every serializable field is also a grid axis: an axis
// value decodes through the spec-file decoder, and Validate checks every
// cell the same way however it was built. Two Spec fields live in
// memory only — a custom Workflow and the Replicate index — and appear
// in none of those projections.
//
// The harness, the public facade and both CLIs are all thin views over
// this package: harness.RunConfig is an alias of Spec,
// harness.CellKey/CellSeed/SweepSeeds delegate to
// Key/ReplicateSeed/Reseed, the facade's functional options mutate a
// Spec, and wfbench/wfsim register their scenario flags from the same
// group table, so a new scenario knob added here is automatically
// memoized, replicated, flag-exposed and serializable everywhere.
package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// DefaultSeed is the fixed provisioning-jitter seed used when a Spec
// leaves Seed zero — the paper's single-measurement setting.
const DefaultSeed uint64 = 0x5EED

// Spec is one experiment configuration: every scenario field a run can
// vary, with zero values meaning "the paper's default". Every field but
// Workflow and Replicate is serializable; those two live in memory only
// and have no JSON key, flag or axis, so a Spec's JSON is exactly the
// part of a configuration that can live in a file.
type Spec struct {
	// App is "montage", "broadband" or "epigenome".
	App string `json:"app,omitempty"`
	// Storage is a storage.Names() entry.
	Storage string `json:"storage,omitempty"`
	// Workers is the worker-node count.
	Workers int `json:"workers,omitempty"`
	// WorkerType selects the worker instance type by EC2 name; empty
	// means the paper's c1.xlarge.
	WorkerType string `json:"worker_type,omitempty"`
	// DataAware switches to the locality-aware scheduler.
	DataAware bool `json:"data_aware,omitempty"`
	// Seed varies provisioning jitter; 0 means the fixed default.
	Seed uint64 `json:"seed,omitempty"`
	// AppSeed varies the generated application's task-runtime jitter;
	// 0 keeps the app's fixed paper seed.
	AppSeed uint64 `json:"app_seed,omitempty"`
	// InitializeDisks zero-fills ephemeral volumes first (ablation A-6).
	InitializeDisks bool    `json:"initialize_disks,omitempty"`
	InitializeBytes float64 `json:"initialize_bytes,omitempty"`

	// Faults is the fault model: failure injection, node outages and
	// checkpointing. Its fields are promoted, so they serialize in place
	// like the fields above.
	wms.Faults

	// Workflow overrides the paper-scale application with a custom DAG
	// (tests and benchmarks run scaled-down instances); AppSeed is then
	// ignored. A DAG has no canonical name, so a Spec carrying one is
	// neither memoized nor cached.
	Workflow *workflow.Workflow `json:"-"`
	// Replicate is the replicate index of a configuration derived by
	// harness.ReplicateConfig; 0 is the cell itself. A replicate's
	// hashed seeds are never requested again, so caching its result or
	// its per-seed DAG in memory would only hold memory for the life of
	// the process.
	Replicate int `json:"-"`
}

// EffectiveSeed is the provisioning-jitter seed the spec runs with:
// Seed, or DefaultSeed when Seed is 0.
func (s *Spec) EffectiveSeed() uint64 {
	if s.Seed == 0 {
		return DefaultSeed
	}
	return s.Seed
}

// CanonicalJSON renders the spec as compact JSON with the struct's
// fixed field order and zero-valued fields omitted. The encoding is a
// pure function of the spec's field values, so artifacts embedding a
// spec — event-log headers, memo keys derived from them — are
// byte-stable across runs and processes.
func (s *Spec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s)
}

// UnknownNameError reports a name that does not resolve in one of the
// scenario catalogs (application, storage system, worker type). It is
// a typed error so spec-file loaders and API callers can detect a typo
// programmatically; its message always lists the valid names.
type UnknownNameError struct {
	Kind  string   // "application", "storage system" or "worker type"
	Name  string   // the unresolvable name
	Valid []string // the catalog it was checked against
}

func (e *UnknownNameError) Error() string {
	return fmt.Sprintf("scenario: unknown %s %q (valid: %s)",
		e.Kind, e.Name, strings.Join(e.Valid, ", "))
}

// ValidateApp resolves an application name, returning an
// *UnknownNameError naming the valid applications on failure.
func ValidateApp(name string) error {
	for _, n := range apps.Names() {
		if n == name {
			return nil
		}
	}
	return &UnknownNameError{Kind: "application", Name: name, Valid: apps.Names()}
}

// ValidateStorage resolves a storage-system name, returning an
// *UnknownNameError naming the valid systems on failure.
func ValidateStorage(name string) error {
	for _, n := range storage.Names() {
		if n == name {
			return nil
		}
	}
	return &UnknownNameError{Kind: "storage system", Name: name, Valid: storage.Names()}
}

// ValidateWorkerType resolves a worker instance type; empty selects the
// default and is always valid.
func ValidateWorkerType(name string) error {
	if _, err := cluster.TypeByName(name); err != nil {
		return &UnknownNameError{Kind: "worker type", Name: name, Valid: cluster.TypeNames()}
	}
	return nil
}

// Validate checks every cell the same way, wherever it came from, so a
// bad spec fails before any simulation starts: each catalog-typed field
// must resolve (an *UnknownNameError lists the valid names), the
// storage system must be able to form a file system on the worker count
// (a *storage.WorkersError), and the fault knobs must be in range (a
// *wms.FaultError names the bad one). App may be empty only when a
// custom Workflow replaces it; a non-empty App must resolve even then,
// because replicate seeds hash it.
func (s *Spec) Validate() error {
	if s.App != "" || s.Workflow == nil {
		if err := ValidateApp(s.App); err != nil {
			return err
		}
	}
	if err := ValidateStorage(s.Storage); err != nil {
		return err
	}
	if err := ValidateWorkerType(s.WorkerType); err != nil {
		return err
	}
	if err := storage.CheckWorkers(s.Storage, s.Workers); err != nil {
		return err
	}
	return s.Faults.Validate()
}
