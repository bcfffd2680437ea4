package harness

import (
	"fmt"
	"slices"
	"strings"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/report"
	"ec2wfsim/internal/units"
)

// AblationResult pairs a configuration label with its cell.
type AblationResult struct {
	Label  string
	Result *RunResult
}

// AblationSweep runs one named experiment of the experiments table. A
// study reads all of o and returns its rendering alone; a fixed-cell
// ablation reads only o.Sweep. Each ablation's cells dispatch through
// the sweep engine as one concurrent batch, and cells shared with the
// figure grids (most ablations reuse grid configurations) come from the
// process-wide cache.
func AblationSweep(name string, o StudyOptions) ([]AblationResult, string, error) {
	at := slices.IndexFunc(experiments, func(x experiment) bool { return x.name == name })
	if at < 0 {
		return nil, "", fmt.Errorf("harness: unknown ablation %q (want one of %s)", name, strings.Join(AblationNames(), ", "))
	}
	x := experiments[at]
	if x.study != nil {
		_, out, err := x.study(o)
		return nil, out, err
	}
	cfgs := make([]RunConfig, len(x.cells))
	for i, c := range x.cells {
		cfgs[i] = c.cfg
	}
	rs, err := Sweep(cfgs, o.Sweep)
	if err != nil {
		return nil, "", err
	}
	results := make([]AblationResult, len(rs))
	for i, r := range rs {
		if x.post != nil {
			x.post(x.cells[i].label, r)
		}
		results[i] = AblationResult{Label: x.cells[i].label, Result: r}
	}
	return results, renderAblation(x.title, results), nil
}

// AblationNames lists the named experiments in the order wfbench prints
// them.
func AblationNames() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	return names
}

// StudyNames lists, in the same order, the experiments that are
// studies: the ones that honour Sweep.Seeds and the study knobs.
func StudyNames() []string {
	var names []string
	for _, x := range experiments {
		if x.study != nil {
			names = append(names, x.name)
		}
	}
	return names
}

// experiment is one named experiment. A study has its own matrix and
// renderer (baseline-paired cells, delta charts) and, unlike a
// fixed-cell ablation, honours Sweep.Seeds and the study knobs of
// StudyOptions. A fixed-cell ablation is a labelled list of cells plus
// an optional per-result adjustment applied after the sweep.
type experiment struct {
	name  string
	study func(StudyOptions) ([]PairedCell, string, error) // set for a study
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

// experiments is the one list of named experiments, in the order wfbench
// prints them.
var experiments = []experiment{
	// The paper's Section IV note: workflows on XtreemFS took more than
	// twice as long as on the systems reported.
	{
		name:  "xtreemfs",
		title: "E-X1: Montage on XtreemFS vs reported systems (2 nodes)",
		cells: []ablationCell{
			{"gluster-nufa", RunConfig{App: "montage", Storage: "gluster-nufa", Workers: 2}},
			{"nfs", RunConfig{App: "montage", Storage: "nfs", Workers: 2}},
			{"xtreemfs", RunConfig{App: "montage", Storage: "xtreemfs", Workers: 2}},
		},
	},

	// The S3 client-cache effect on Broadband (Section IV.A / V.C:
	// caching is what makes S3 win for Broadband).
	{
		name:  "s3cache",
		title: "A-1: Broadband on S3 with and without the client cache (4 nodes)",
		cells: []ablationCell{
			{"s3", RunConfig{App: "broadband", Storage: "s3", Workers: 4}},
			{"s3-nocache", RunConfig{App: "broadband", Storage: "s3-nocache", Workers: 4}},
		},
	},

	// The paper's future-work suggestion: a data-aware scheduler raising
	// cache hits and cutting transfers.
	{
		name:  "locality",
		title: "A-2: Broadband on GlusterFS NUFA, locality-blind vs data-aware scheduling (4 nodes)",
		cells: []ablationCell{
			{"fifo (paper)", RunConfig{App: "broadband", Storage: "gluster-nufa", Workers: 4}},
			{"data-aware", RunConfig{App: "broadband", Storage: "gluster-nufa", Workers: 4, DataAware: true}},
		},
	},

	// The async export option quantified (Section IV.B).
	{
		name:  "nfssync",
		title: "A-4: Montage on NFS, async vs sync exports (2 nodes)",
		cells: []ablationCell{
			{"nfs", RunConfig{App: "montage", Storage: "nfs", Workers: 2}},
			{"nfs-sync", RunConfig{App: "montage", Storage: "nfs-sync", Workers: 2}},
		},
	},

	// The Broadband big-server experiment (Section V.C: m2.4xlarge
	// 4368 s vs m1.xlarge 5363 s at 4 nodes).
	{
		name:  "nfsserver",
		title: "A-3: Broadband NFS server size at 4 nodes (paper: 5363 s vs 4368 s)",
		cells: []ablationCell{
			{"nfs", RunConfig{App: "broadband", Storage: "nfs", Workers: 4}},
			{"nfs-m2.4xlarge", RunConfig{App: "broadband", Storage: "nfs-m2.4xlarge", Workers: 4}},
		},
	},

	// Amazon's suggested first-write mitigation: is zero-initializing
	// the disks worth it for a single Montage run? (The paper argues no:
	// zeroing 50 GB takes as long as the workflow.)
	{
		name:  "diskinit",
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

	// The paper's Section III.B premise: "we found that the c1.xlarge
	// type delivers the best overall performance for the applications
	// considered here". Same dollar budget, different shapes: 4
	// c1.xlarge ($2.72/h) vs 4 m1.xlarge ($2.72/h) vs 8 m1.large
	// ($2.72/h).
	{
		name:  "workertype",
		title: "§III.B premise: worker instance type at equal hourly budget ($2.72/h of workers, GlusterFS NUFA)",
		cells: workerTypeCells(),
	},

	{name: "failures", study: FailureStudy},
	{name: "outages", study: OutageStudy},
	{name: "scale", study: ScaleStudy},
	// scale1000 jumps from the paper's 8 nodes straight to 1000.
	{name: "scale1000", study: func(o StudyOptions) ([]PairedCell, string, error) {
		o.Sizes = []int{8, 1000}
		return ScaleStudy(o)
	}},
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
