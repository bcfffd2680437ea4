package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"slices"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/harness"
)

// goldenPath is the golden file, relative to the repository root, that
// pins the paper numbers at seed 0.
const goldenPath = "internal/harness/testdata/golden.json"

// output is what one repetition, or the check-only work after it,
// produced. An op is one cell replicate (simulated or served from the
// store), one Table I, one log verification or one probed cell; it fails
// if it returns an error or fails a check.
type output struct {
	ops, failed int
	notes       []string          // one line per failed check
	hash        hash.Hash         // digest of the canonical outputs; nil for check-only work
	rows        map[string][]byte // JSON row of each distinct cell, by label
}

func newOutput(ops int) output {
	return output{ops: ops, hash: sha256.New(), rows: map[string][]byte{}}
}

func (o *output) fail(ops int, format string, args ...any) {
	o.failed += ops
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// add folds canonical output bytes into the digest.
func (o *output) add(b []byte) {
	o.hash.Write(b)
	o.hash.Write([]byte{'\n'})
}

func (o *output) digest() string {
	if o.hash == nil {
		return ""
	}
	return hex.EncodeToString(o.hash.Sum(nil))
}

func (o *output) merge(p output) {
	o.ops += p.ops
	o.failed += p.failed
	o.notes = append(o.notes, p.notes...)
}

// addCell folds one cell's row into the digest and returns the row. A
// simulated cell must complete every task of its DAG in no less than the
// DAG's critical-path time. A cell served from the store carries no
// spans; the workload compares it with a cold run instead.
func (o *output) addCell(r *harness.RunResult) []byte {
	row, err := rowJSON(r)
	if err != nil {
		o.fail(1, "%s: %v", label(r.Config), err)
		return nil
	}
	o.add(row)
	if r.Spans == nil {
		return row
	}
	path, tasks, err := dagFacts(r.Config)
	switch {
	case err != nil:
		o.fail(1, "%s: %v", label(r.Config), err)
	case r.Completed() != tasks:
		o.fail(1, "%s: %d of %d tasks completed", label(r.Config), r.Completed(), tasks)
	case r.Makespan < path:
		o.fail(1, "%s: makespan %g s is below the critical path %g s", label(r.Config), r.Makespan, path)
	}
	return row
}

func rowJSON(r *harness.RunResult) ([]byte, error) {
	return json.Marshal(r.JSONRow())
}

// dagFacts returns the critical-path time and task count of a cell's
// DAG. A replicate's result does not keep its DAG, so that one is
// generated again.
func dagFacts(cfg harness.RunConfig) (criticalPath float64, tasks int, err error) {
	w := cfg.Workflow
	if w == nil {
		if w, err = apps.PaperScaleSeeded(cfg.App, cfg.AppSeed); err != nil {
			return 0, 0, err
		}
	}
	return w.CriticalPathTime(), len(w.Tasks), nil
}

// goldenCell is one grid cell as the golden file pins it.
type goldenCell struct {
	Label      string  `json:"label"`
	Makespan   float64 `json:"makespan_s"`
	CostHour   float64 `json:"cost_per_hour"`
	CostSecond float64 `json:"cost_per_second"`
}

// golden is the part of the golden file the paper-grid workload
// regenerates.
type golden struct {
	TableI    []string     `json:"table1_rows"`
	Montage   []goldenCell `json:"montage_grid"`
	Epigenome []goldenCell `json:"epigenome_grid"`
	Broadband []goldenCell `json:"broadband_grid"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// tableLines splits a rendered table into its non-empty lines, the form
// the golden file keeps.
func tableLines(text string) []string {
	var lines []string
	for _, l := range strings.Split(text, "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

func gridCells(res []*harness.RunResult) []goldenCell {
	cells := make([]goldenCell, len(res))
	for i, r := range res {
		cells[i] = goldenCell{
			Label:      fmt.Sprintf("%s/%d", r.Config.Storage, r.Config.Workers),
			Makespan:   r.Makespan,
			CostHour:   r.CostHour.Total(),
			CostSecond: r.CostSecond.Total(),
		}
	}
	return cells
}

// goldenMismatches compares Table I and the montage, epigenome and
// broadband grids, in that order, with the golden file exactly: the
// simulator is deterministic, so any difference, one ULP included, is a
// drift. It returns one line per drifted table or cell.
func goldenMismatches(want golden, table []string, cells []goldenCell) []string {
	var out []string
	if !slices.Equal(table, want.TableI) {
		out = append(out, fmt.Sprintf("Table I differs: got %q, want %q", table, want.TableI))
	}
	grid := slices.Concat(want.Montage, want.Epigenome, want.Broadband)
	if len(cells) != len(grid) {
		out = append(out, fmt.Sprintf("%d grid cells, golden has %d", len(cells), len(grid)))
	}
	for i := range min(len(cells), len(grid)) {
		if cells[i] != grid[i] {
			out = append(out, fmt.Sprintf("cell %d drifted: got %+v, want %+v", i, cells[i], grid[i]))
		}
	}
	return out
}
