// Package workflow models scientific workflows as DAGs of tasks that
// communicate through files, mirroring the abstract-workflow (DAX) model
// used by Pegasus: each task names a transformation, consumes input files
// and produces output files, and data dependencies are implied by
// producer/consumer relationships (with optional explicit control edges).
package workflow

import (
	"fmt"
	"math"
	"sort"
)

// File is a logical workflow file. Files are write-once: exactly one task
// (or the pre-staged input set) produces each file, which is the property
// the paper's S3 client cache relies on.
type File struct {
	Name string
	Size float64 // bytes
	// Keep marks a produced file as a deliverable even when downstream
	// tasks also consume it (e.g. Montage's background-corrected images,
	// which feed mAdd but are part of the "7.9 GB of output data").
	// Terminal files (produced, never consumed) are deliverables
	// regardless of Keep.
	Keep bool
}

// Task is one executable step of a workflow.
type Task struct {
	ID             string
	Transformation string  // executable name, e.g. "mProject"
	Runtime        float64 // pure-computation seconds on a c1.xlarge core
	PeakMemory     float64 // bytes of resident memory while running
	Inputs         []*File
	Outputs        []*File

	// parents/children are derived by Finalize from file relationships
	// plus explicit control edges.
	parents  []*Task
	children []*Task
}

// Parents returns the tasks this task depends on.
func (t *Task) Parents() []*Task { return t.parents }

// Children returns the tasks that depend on this task.
func (t *Task) Children() []*Task { return t.children }

// Workflow is a finalized DAG.
type Workflow struct {
	Name  string
	Tasks []*Task

	files     map[string]*File
	inputs    []*File // files consumed but never produced (pre-staged)
	outputs   []*File // files produced but never consumed (final results)
	extraDeps map[*Task][]*Task
	finalized bool
}

// New returns an empty workflow under construction.
func New(name string) *Workflow {
	return &Workflow{
		Name:      name,
		files:     make(map[string]*File),
		extraDeps: make(map[*Task][]*Task),
	}
}

// File interns a file by name, creating it with the given size on first
// use. Re-declaring an existing file with a different size is an error
// caught at Finalize; before that the first size wins.
func (w *Workflow) File(name string, size float64) *File {
	if f, ok := w.files[name]; ok {
		return f
	}
	f := &File{Name: name, Size: size}
	w.files[name] = f
	return f
}

// AddTask appends a task to the workflow.
func (w *Workflow) AddTask(t *Task) *Task {
	if w.finalized {
		panic("workflow: AddTask after Finalize")
	}
	w.Tasks = append(w.Tasks, t)
	return t
}

// AddDependency records an explicit control edge from parent to child,
// used when ordering matters without a data file (e.g. directory-creation
// jobs).
func (w *Workflow) AddDependency(parent, child *Task) {
	if w.finalized {
		panic("workflow: AddDependency after Finalize")
	}
	w.extraDeps[child] = append(w.extraDeps[child], parent)
}

// Finalize derives the dependency graph and validates the workflow:
// unique task IDs, finite non-negative runtimes, peak memory and file
// sizes, single producer per file, acyclicity. Files are checked in name
// order, so the same workflow always reports the same first error. It
// must be called exactly once, after all tasks are added.
func (w *Workflow) Finalize() error {
	if w.finalized {
		return fmt.Errorf("workflow %s: already finalized", w.Name)
	}
	ids := make(map[string]bool, len(w.Tasks))
	for _, t := range w.Tasks {
		if t.ID == "" {
			return fmt.Errorf("workflow %s: task with empty ID", w.Name)
		}
		if ids[t.ID] {
			return fmt.Errorf("workflow %s: duplicate task ID %q", w.Name, t.ID)
		}
		ids[t.ID] = true
		if bad := amountFault(t.Runtime); bad != "" {
			return fmt.Errorf("workflow %s: task %s has %s runtime %g", w.Name, t.ID, bad, t.Runtime)
		}
		if bad := amountFault(t.PeakMemory); bad != "" {
			return fmt.Errorf("workflow %s: task %s has %s peak memory %g", w.Name, t.ID, bad, t.PeakMemory)
		}
	}
	names := make([]string, 0, len(w.files))
	for name := range w.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := w.files[name]
		if bad := amountFault(f.Size); bad != "" {
			return fmt.Errorf("workflow %s: file %q has %s size %g", w.Name, name, bad, f.Size)
		}
	}
	// Producer/consumer maps, needed only to derive the graph.
	producers := make(map[*File]*Task)
	consumers := make(map[*File]int)
	for _, t := range w.Tasks {
		for _, f := range t.Outputs {
			if prev, ok := producers[f]; ok {
				return fmt.Errorf("workflow %s: file %q produced by both %s and %s (write-once violated)",
					w.Name, f.Name, prev.ID, t.ID)
			}
			producers[f] = t
		}
	}
	for _, t := range w.Tasks {
		for _, f := range t.Inputs {
			consumers[f]++
		}
	}
	// Derive edges.
	for _, t := range w.Tasks {
		seen := make(map[*Task]bool)
		addParent := func(p *Task) {
			if p != nil && p != t && !seen[p] {
				seen[p] = true
				t.parents = append(t.parents, p)
				p.children = append(p.children, t)
			}
		}
		for _, f := range t.Inputs {
			addParent(producers[f])
		}
		for _, p := range w.extraDeps[t] {
			addParent(p)
		}
	}
	// Classify workflow-level inputs and outputs.
	for _, name := range names {
		f := w.files[name]
		if producers[f] == nil && consumers[f] > 0 {
			w.inputs = append(w.inputs, f)
		}
		if producers[f] != nil && (consumers[f] == 0 || f.Keep) {
			w.outputs = append(w.outputs, f)
		}
	}
	if err := w.checkAcyclic(); err != nil {
		return err
	}
	w.finalized = true
	return nil
}

// amountFault says why v cannot be a runtime, a peak memory or a file
// size ("negative" or "non-finite"), or returns "" if it can. Zero is
// valid. A bad figure stops here, at the workflow boundary, instead of
// panicking inside the simulation that would consume it.
func amountFault(v float64) string {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return "non-finite"
	case v < 0:
		return "negative"
	}
	return ""
}

// checkAcyclic verifies the DAG: Kahn's walk (TopoOrder) reaches every
// task only when there is no cycle.
func (w *Workflow) checkAcyclic() error {
	if n := len(w.TopoOrder()); n != len(w.Tasks) {
		return fmt.Errorf("workflow %s: dependency cycle detected (%d of %d tasks reachable)",
			w.Name, n, len(w.Tasks))
	}
	return nil
}

// Finalized reports whether Finalize has completed successfully.
func (w *Workflow) Finalized() bool { return w.finalized }

// Inputs returns the pre-staged input files in name order.
func (w *Workflow) Inputs() []*File { return w.inputs }

// Outputs returns the deliverable files in name order: terminal outputs
// plus produced files explicitly marked Keep.
func (w *Workflow) Outputs() []*File { return w.outputs }

// Files returns all files in name order.
func (w *Workflow) Files() []*File {
	names := make([]string, 0, len(w.files))
	for name := range w.files {
		names = append(names, name)
	}
	sort.Strings(names)
	fs := make([]*File, len(names))
	for i, name := range names {
		fs[i] = w.files[name]
	}
	return fs
}

// TopoOrder returns the tasks in a deterministic topological order
// (Kahn's algorithm with FIFO tie-breaking by insertion order).
func (w *Workflow) TopoOrder() []*Task {
	indeg := make(map[*Task]int, len(w.Tasks))
	for _, t := range w.Tasks {
		indeg[t] = len(t.parents)
	}
	var queue, order []*Task
	for _, t := range w.Tasks {
		if indeg[t] == 0 {
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, c := range t.children {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return order
}

// CriticalPathTime returns the longest chain of task runtimes (computation
// only; storage time depends on the deployment), a lower bound on any
// makespan.
func (w *Workflow) CriticalPathTime() float64 {
	finish := make(map[*Task]float64, len(w.Tasks))
	longest := 0.0
	for _, t := range w.TopoOrder() {
		start := 0.0
		for _, p := range t.parents {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[t] = start + t.Runtime
		if finish[t] > longest {
			longest = finish[t]
		}
	}
	return longest
}
