package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/report"
	"ec2wfsim/internal/resultcache"
)

// workload is one closed-loop batch: a single caller submits a fixed
// batch of cells and waits for all of them. A process sets a workload up
// and runs one repetition of it.
type workload interface {
	// setup does the program work that precedes the repetition.
	setup() error
	// rep runs the repetition. It calls timed exactly once, around the
	// measured call; preparation and output checks happen outside it.
	rep(timed func(func())) output
	// finish does check-only work on the repetition's outputs.
	finish() output
	// cells lists the distinct cells the workload runs, for the probes.
	cells() []harness.RunConfig
}

// workloadSpec names a workload and builds it for a seed; root is the
// repository root and dir a scratch directory the workload may use. Why
// each workload exists is on its type.
type workloadSpec struct {
	name string
	make func(seed uint64, root, dir string) (workload, error)
}

var workloadSpecs = []workloadSpec{
	{"paper-grid", newPaperGrid},
	{"striped-128", newStriped},
	{"seed-extend", newSeedExtend},
	{"record-replay", newRecordReplay},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// withSeed applies the workload seed to a generated cell. Seed 0 keeps
// the paper's defaults.
func withSeed(cfg harness.RunConfig, seed uint64) harness.RunConfig {
	if seed != 0 {
		cfg.Seed, cfg.AppSeed = seed, seed
	}
	return cfg
}

func seeded(cfgs []harness.RunConfig, seed uint64) []harness.RunConfig {
	out := make([]harness.RunConfig, len(cfgs))
	for i, c := range cfgs {
		out[i] = withSeed(c, seed)
	}
	return out
}

// prime builds the paper DAGs for the given applications the way a CLI's
// first cells do: one local/1 cell each, through the sweep, which keeps
// the DAG for the rest of the process.
func prime(seed uint64, appNames ...string) error {
	var cfgs []harness.RunConfig
	for _, app := range appNames {
		cfgs = append(cfgs, withSeed(harness.RunConfig{App: app, Storage: "local", Workers: 1}, seed))
	}
	_, err := harness.Sweep(cfgs, harness.SweepOptions{Parallel: 1, NoMemo: true})
	return err
}

// paperGrid regenerates the paper's own artifact: Table I and the
// montage, epigenome and broadband grids on the default solver, one
// worker. Montage's 10k short tasks make it process-switch bound.
type paperGrid struct {
	seed   uint64
	cfgs   []harness.RunConfig
	golden *golden // nil unless seed is 0
}

func newPaperGrid(seed uint64, root, _ string) (workload, error) {
	w := &paperGrid{seed: seed}
	for _, app := range []string{"montage", "epigenome", "broadband"} {
		w.cfgs = append(w.cfgs, seeded(harness.GridConfigs(app), seed)...)
	}
	if seed == 0 {
		g, err := loadGolden(filepath.Join(root, goldenPath))
		if err != nil {
			return nil, err
		}
		w.golden = g
	}
	return w, nil
}

func (w *paperGrid) setup() error {
	if err := prime(w.seed, "montage", "epigenome", "broadband"); err != nil {
		return err
	}
	// Table I profiles the seed-0 DAGs whatever the workload seed.
	_, err := harness.TableI()
	return err
}

func (w *paperGrid) rep(timed func(func())) output {
	var table *report.Table
	var res []*harness.RunResult
	var tableErr, sweepErr error
	timed(func() {
		table, tableErr = harness.TableI()
		res, sweepErr = harness.Sweep(w.cfgs, harness.SweepOptions{Parallel: 1, NoMemo: true})
	})
	o := newOutput(len(w.cfgs) + 1)
	if err := errors.Join(tableErr, sweepErr); err != nil {
		o.fail(o.ops, "paper-grid: %v", err)
		return o
	}
	text := table.String()
	o.add([]byte(text))
	for _, r := range res {
		o.rows[label(r.Config)] = o.addCell(r)
	}
	if w.golden != nil {
		for _, m := range goldenMismatches(*w.golden, tableLines(text), gridCells(res)) {
			o.fail(1, "golden: %s", m)
		}
	}
	return o
}

func (w *paperGrid) finish() output             { return output{} }
func (w *paperGrid) cells() []harness.RunConfig { return w.cfgs }

// striped runs epigenome and broadband on PVFS at 128 workers, so every
// read fans out over 128 stripes and the flow solver dominates.
type striped struct {
	seed uint64
	cfgs []harness.RunConfig
}

func newStriped(seed uint64, _, _ string) (workload, error) {
	return &striped{seed: seed, cfgs: seeded([]harness.RunConfig{
		{App: "epigenome", Storage: "pvfs", Workers: 128},
		{App: "broadband", Storage: "pvfs", Workers: 128},
	}, seed)}, nil
}

func (w *striped) setup() error { return prime(w.seed, "epigenome", "broadband") }

func (w *striped) rep(timed func(func())) output {
	var res []*harness.RunResult
	var err error
	timed(func() { res, err = harness.Sweep(w.cfgs, harness.SweepOptions{Parallel: 1, NoMemo: true}) })
	o := newOutput(len(w.cfgs))
	if err != nil {
		o.fail(o.ops, "striped-128: %v", err)
		return o
	}
	for _, r := range res {
		o.rows[label(r.Config)] = o.addCell(r)
	}
	return o
}

func (w *striped) finish() output             { return output{} }
func (w *striped) cells() []harness.RunConfig { return w.cfgs }

// Seed counts of the seed-extend workload: the template store holds the
// first warmSeeds replicates of every cell, each repetition grows every
// cell to allSeeds.
const (
	warmSeeds = 32
	allSeeds  = 64
)

// seedExtend grows 8 cells from 32 to 64 seeds through the parallel
// replicate scheduler, against a fresh copy of a store that already holds
// seeds 0-31: half the replicates come from the store, half are simulated
// (each on a freshly generated DAG) and stored.
type seedExtend struct {
	seed     uint64
	cfgs     []harness.RunConfig
	dir      string
	template string
	rows     [][]byte // the repetition's rows, in (cell, seed) order
}

func newSeedExtend(seed uint64, _, dir string) (workload, error) {
	w := &seedExtend{seed: seed, dir: dir, template: filepath.Join(dir, "template")}
	for _, app := range []string{"epigenome", "broadband"} {
		for _, st := range []string{"nfs", "gluster-nufa", "pvfs", "s3"} {
			w.cfgs = append(w.cfgs, withSeed(harness.RunConfig{App: app, Storage: st, Workers: 4}, seed))
		}
	}
	return w, nil
}

func (w *seedExtend) options(seeds int, store *resultcache.Store) harness.SweepOptions {
	return harness.SweepOptions{Seeds: seeds, Parallel: runtime.NumCPU(), NoMemo: true, Cache: store}
}

func (w *seedExtend) setup() error {
	if err := prime(w.seed, "epigenome", "broadband"); err != nil {
		return err
	}
	if err := os.RemoveAll(w.template); err != nil {
		return err
	}
	store, err := resultcache.Open(w.template)
	if err != nil {
		return err
	}
	_, err = harness.SweepSeeds(w.cfgs, w.options(warmSeeds, store))
	return err
}

func (w *seedExtend) rep(timed func(func())) output {
	o := newOutput(len(w.cfgs) * allSeeds)
	dir := filepath.Join(w.dir, "store")
	defer os.RemoveAll(dir)
	if err := os.RemoveAll(dir); err != nil {
		o.fail(o.ops, "seed-extend: %v", err)
		return o
	}
	if err := os.CopyFS(dir, os.DirFS(w.template)); err != nil {
		o.fail(o.ops, "seed-extend: copying the template store: %v", err)
		return o
	}
	store, err := resultcache.Open(dir)
	if err != nil {
		o.fail(o.ops, "seed-extend: %v", err)
		return o
	}
	var reps []harness.Replicated
	timed(func() { reps, err = harness.SweepSeeds(w.cfgs, w.options(allSeeds, store)) })
	if err != nil {
		o.fail(o.ops, "seed-extend: %v", err)
		return o
	}
	if hits, _ := store.Stats(); hits != int64(len(w.cfgs)*warmSeeds) {
		o.fail(len(w.cfgs)*warmSeeds-int(hits), "seed-extend: the store served %d replicates, want %d", hits, len(w.cfgs)*warmSeeds)
	}
	for _, rep := range reps {
		for i, r := range rep.Runs {
			row := o.addCell(r)
			if i == 0 {
				o.rows[label(r.Config)] = row
			}
			w.rows = append(w.rows, row)
		}
	}
	return o
}

// finish recomputes every replicate with no store at all: the rows served
// from the half-warm store must equal the all-cold ones.
func (w *seedExtend) finish() output {
	var o output
	cold, err := harness.SweepSeeds(w.cfgs, w.options(allSeeds, nil))
	if err != nil {
		o.fail(len(w.cfgs)*allSeeds, "seed-extend cold sweep: %v", err)
		return o
	}
	i := 0
	for _, rep := range cold {
		for _, r := range rep.Runs {
			row, err := rowJSON(r)
			if err != nil || i >= len(w.rows) || !bytes.Equal(row, w.rows[i]) {
				o.fail(1, "seed-extend: %s replicate row differs from the all-cold sweep", label(r.Config))
			}
			i++
		}
	}
	return o
}

func (w *seedExtend) cells() []harness.RunConfig { return w.cfgs }

// recordReplay records montage on nfs-sync at 2 workers into memory and
// verifies the log by replaying it: the wms path with the recorder on.
type recordReplay struct {
	cfg harness.RunConfig
	row []byte // the recorded row
}

func newRecordReplay(seed uint64, _, _ string) (workload, error) {
	return &recordReplay{cfg: withSeed(harness.RunConfig{App: "montage", Storage: "nfs-sync", Workers: 2}, seed)}, nil
}

// setup primes the montage DAG like every other workload's set-up, though
// RunRecorded and ReplayVerify build their own, as wfsim -events does.
func (w *recordReplay) setup() error { return prime(w.cfg.Seed, "montage") }

func (w *recordReplay) rep(timed func(func())) output {
	var buf bytes.Buffer
	var rec *harness.RunResult
	var v *harness.VerifyResult
	var recErr, verErr error
	timed(func() {
		rec, recErr = harness.RunRecorded(w.cfg, &buf)
		if recErr == nil {
			_, v, verErr = harness.ReplayVerify(buf.Bytes())
		}
	})
	o := newOutput(2)
	if recErr != nil {
		o.fail(2, "record-replay: %v", recErr)
		return o
	}
	o.add(buf.Bytes())
	w.row = o.addCell(rec)
	o.rows[label(w.cfg)] = w.row
	switch {
	case verErr != nil:
		o.fail(1, "record-replay: verify: %v", verErr)
	case !v.Match:
		o.fail(1, "record-replay: replay diverges at event %d: %s", v.Seq, v.Detail)
	}
	return o
}

// finish checks that recording left the simulation untouched: the
// recorded row must equal an unrecorded run's.
func (w *recordReplay) finish() output {
	var o output
	r, err := harness.Run(w.cfg)
	if err != nil {
		o.fail(1, "record-replay: unrecorded run: %v", err)
		return o
	}
	if row, err := rowJSON(r); err != nil || !bytes.Equal(row, w.row) {
		o.fail(1, "record-replay: recorded row differs from the unrecorded run")
	}
	return o
}

func (w *recordReplay) cells() []harness.RunConfig { return []harness.RunConfig{w.cfg} }

// label names a cell in rows, spans and messages.
func label(cfg harness.RunConfig) string {
	return fmt.Sprintf("%s/%s/%d", cfg.App, cfg.Storage, cfg.Workers)
}
