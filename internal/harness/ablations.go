package harness

import (
	"fmt"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/disk"
	"ec2wfsim/internal/report"
	"ec2wfsim/internal/units"
)

// diskSingle and diskRAID0x4 expose the disk profiles for reports.
func diskSingle() disk.Profile  { return disk.EphemeralSingle() }
func diskRAID0x4() disk.Profile { return disk.RAID0(disk.EphemeralSingle(), 4) }

// AblationResult pairs a configuration label with its cell.
type AblationResult struct {
	Label  string
	Result *RunResult
}

// Ablation runs one named ablation experiment, a key of ablations or of
// studies, at its defaults.
func Ablation(name string) ([]AblationResult, string, error) {
	return AblationSweep(name, StudyOptions{})
}

// AblationSweep runs one named ablation experiment. A study reads all of
// o and returns its rendering alone; a fixed-cell ablation reads only
// o.Sweep. Each ablation's cells dispatch through the sweep engine as
// one concurrent batch, and cells shared with the figure grids (most
// ablations reuse grid configurations) come from the process-wide
// cache.
func AblationSweep(name string, o StudyOptions) ([]AblationResult, string, error) {
	if study, ok := studies[name]; ok {
		_, out, err := study(o)
		return nil, out, err
	}
	a, ok := ablations[name]
	if !ok {
		return nil, "", fmt.Errorf("harness: unknown ablation %q (want one of %s)", name, strings.Join(AblationNames(), ", "))
	}
	results, err := runAblation(a, o.Sweep)
	if err != nil {
		return nil, "", err
	}
	return results, renderAblation(a.title, results), nil
}

// studies are the ablations with their own matrix and renderer
// (baseline-paired cells, delta charts), keyed by ablation name. Unlike
// the fixed-cell ablations they honour Sweep.Seeds and the study knobs
// of StudyOptions.
var studies = map[string]func(StudyOptions) ([]PairedCell, string, error){
	"failures": FailureStudy,
	"outages":  OutageStudy,
	"scale":    ScaleStudy,
	// scale1000 jumps from the paper's 8 nodes straight to 1000.
	"scale1000": func(o StudyOptions) ([]PairedCell, string, error) {
		o.Sizes = []int{8, 1000}
		return ScaleStudy(o)
	},
}

// AblationNames lists the available ablation experiments.
func AblationNames() []string {
	return []string{"xtreemfs", "s3cache", "locality", "nfssync", "nfsserver", "diskinit", "workertype", "failures", "outages", "scale", "scale1000"}
}

// ablation declares one experiment: a labelled list of cells plus an
// optional per-result adjustment applied after the sweep.
type ablation struct {
	title string
	cells []ablationCell
	// post, if set, adjusts each result (which is a private copy) before
	// rendering — e.g. charging initialization time against the run.
	post func(label string, r *RunResult)
}

type ablationCell struct {
	label string
	cfg   RunConfig
}

// runAblation dispatches an ablation's cells through the sweep engine.
func runAblation(a ablation, opt SweepOptions) ([]AblationResult, error) {
	cfgs := make([]RunConfig, len(a.cells))
	for i, c := range a.cells {
		cfgs[i] = c.cfg
	}
	rs, err := Sweep(cfgs, opt)
	if err != nil {
		return nil, err
	}
	results := make([]AblationResult, len(rs))
	for i, r := range rs {
		if a.post != nil {
			a.post(a.cells[i].label, r)
		}
		results[i] = AblationResult{Label: a.cells[i].label, Result: r}
	}
	return results, nil
}

// ablations declares every fixed-cell ablation experiment.
var ablations = map[string]ablation{
	// ablateWorkerType checks the paper's Section III.B premise: "we
	// found that the c1.xlarge type delivers the best overall performance
	// for the applications considered here". Same dollar budget,
	// different shapes: 4 c1.xlarge ($2.72/h) vs 4 m1.xlarge ($2.72/h)
	// vs 8 m1.large ($2.72/h).
	"workertype": {
		title: "§III.B premise: worker instance type at equal hourly budget ($2.72/h of workers, GlusterFS NUFA)",
		cells: workerTypeCells(),
	},

	// The paper's Section IV note: workflows on XtreemFS took more than
	// twice as long as on the systems reported.
	"xtreemfs": {
		title: "E-X1: Montage on XtreemFS vs reported systems (2 nodes)",
		cells: []ablationCell{
			{"gluster-nufa", RunConfig{App: "montage", Storage: "gluster-nufa", Workers: 2}},
			{"nfs", RunConfig{App: "montage", Storage: "nfs", Workers: 2}},
			{"xtreemfs", RunConfig{App: "montage", Storage: "xtreemfs", Workers: 2}},
		},
	},

	// The S3 client-cache effect on Broadband (Section IV.A / V.C:
	// caching is what makes S3 win for Broadband).
	"s3cache": {
		title: "A-1: Broadband on S3 with and without the client cache (4 nodes)",
		cells: []ablationCell{
			{"s3", RunConfig{App: "broadband", Storage: "s3", Workers: 4}},
			{"s3-nocache", RunConfig{App: "broadband", Storage: "s3-nocache", Workers: 4}},
		},
	},

	// The paper's future-work suggestion: a data-aware scheduler raising
	// cache hits and cutting transfers.
	"locality": {
		title: "A-2: Broadband on GlusterFS NUFA, locality-blind vs data-aware scheduling (4 nodes)",
		cells: []ablationCell{
			{"fifo (paper)", RunConfig{App: "broadband", Storage: "gluster-nufa", Workers: 4}},
			{"data-aware", RunConfig{App: "broadband", Storage: "gluster-nufa", Workers: 4, DataAware: true}},
		},
	},

	// The async export option quantified (Section IV.B).
	"nfssync": {
		title: "A-4: Montage on NFS, async vs sync exports (2 nodes)",
		cells: []ablationCell{
			{"nfs", RunConfig{App: "montage", Storage: "nfs", Workers: 2}},
			{"nfs-sync", RunConfig{App: "montage", Storage: "nfs-sync", Workers: 2}},
		},
	},

	// The Broadband big-server experiment (Section V.C: m2.4xlarge
	// 4368 s vs m1.xlarge 5363 s at 4 nodes).
	"nfsserver": {
		title: "A-3: Broadband NFS server size at 4 nodes (paper: 5363 s vs 4368 s)",
		cells: []ablationCell{
			{"nfs", RunConfig{App: "broadband", Storage: "nfs", Workers: 4}},
			{"nfs-m2.4xlarge", RunConfig{App: "broadband", Storage: "nfs-m2.4xlarge", Workers: 4}},
		},
	},

	// Amazon's suggested first-write mitigation: is zero-initializing
	// the disks worth it for a single Montage run? (The paper argues no:
	// zeroing 50 GB takes as long as the workflow.)
	"diskinit": {
		title: "A-6: Montage local disk with and without zero-initialization (1 node; init time charged)",
		cells: []ablationCell{
			{"uninitialized (paper)", RunConfig{App: "montage", Storage: "local", Workers: 1}},
			{"zero-initialized 50 GB", RunConfig{
				App: "montage", Storage: "local", Workers: 1,
				InitializeDisks: true, InitializeBytes: 50 * units.GB,
			}},
		},
		post: func(label string, r *RunResult) {
			if r.Config.InitializeDisks {
				// Charge the initialization time against the run: the
				// paper's economic argument is about total occupancy.
				r.Makespan += r.ProvisionTime
			}
		},
	},
}

func workerTypeCells() []ablationCell {
	configs := []struct {
		label      string
		workerType string
		workers    int
	}{
		{"4 x c1.xlarge (paper)", "c1.xlarge", 4},
		{"4 x m1.xlarge", "m1.xlarge", 4},
		{"8 x m1.large", "m1.large", 8},
	}
	var cells []ablationCell
	for _, app := range apps.Names() {
		for _, cfg := range configs {
			cells = append(cells, ablationCell{
				label: app + ": " + cfg.label,
				cfg: RunConfig{
					App:        app,
					Storage:    "gluster-nufa",
					Workers:    cfg.workers,
					WorkerType: cfg.workerType,
				},
			})
		}
	}
	return cells
}

func renderAblation(title string, results []AblationResult) string {
	t := &report.Table{
		Title:  title,
		Header: []string{"Configuration", "Makespan", "Cost/hr", "Cost/sec", "Net bytes", "Cache hits"},
	}
	for _, ar := range results {
		r := ar.Result
		t.AddRow(ar.Label,
			units.Duration(r.Makespan),
			units.USD(r.CostHour.Total()),
			units.USD(r.CostSecond.Total()),
			units.Bytes(r.Stats.NetworkBytes),
			fmt.Sprintf("%d", r.Stats.CacheHits),
		)
	}
	return t.String()
}
