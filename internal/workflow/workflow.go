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
	// index is the file's dense index in its workflow, from 1; 0 marks
	// a file no workflow interned. It fills the padding after Keep, so a
	// File stays 32 bytes.
	index int32
}

// Index returns the file's dense index: 1..NumFiles() for the files its
// workflow interned, NumFiles()+1+t.Index() for a TaskFile of task t,
// and 0 for a file no workflow made. Per-file tables index by it.
func (f *File) Index() int { return int(f.index) }

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
	// index is the task's position in its workflow's Tasks, set by
	// AddTask.
	index int32
}

// Index returns the task's position in its workflow's Tasks. Per-task
// tables index by it.
func (t *Task) Index() int { return int(t.index) }

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

// File interns a file by name, creating it with the given size and the
// next index on first use. Re-declaring an existing file with a
// different size is an error caught at Finalize; before that the first
// size wins. Like AddTask, it panics after Finalize: the file set, and
// so every per-file table's size, is fixed there.
func (w *Workflow) File(name string, size float64) *File {
	if w.finalized {
		panic("workflow: File after Finalize")
	}
	if f, ok := w.files[name]; ok {
		return f
	}
	f := &File{Name: name, Size: size, index: int32(len(w.files) + 1)}
	w.files[name] = f
	return f
}

// NumFiles returns how many files the workflow interned.
func (w *Workflow) NumFiles() int { return len(w.files) }

// TaskFile returns a file that a run writes for t outside the
// workflow's own files, such as a checkpoint. Its index,
// NumFiles()+1+t.Index(), lies past every interned file and is one per
// task. The workflow is not changed, so runs that share it each make
// their own.
func (w *Workflow) TaskFile(t *Task, name string, size float64) *File {
	if !w.finalized {
		panic("workflow: TaskFile before Finalize")
	}
	return &File{Name: name, Size: size, index: int32(len(w.files) + 1 + t.Index())}
}

// AddTask appends a task to the workflow, giving it the next index.
func (w *Workflow) AddTask(t *Task) *Task {
	if w.finalized {
		panic("workflow: AddTask after Finalize")
	}
	t.index = int32(len(w.Tasks))
	w.Tasks = append(w.Tasks, t)
	return t
}

// owns reports whether t was added to w at its index.
func (w *Workflow) owns(t *Task) bool {
	i := t.Index()
	return i < len(w.Tasks) && w.Tasks[i] == t
}

// interned reports whether f is one of w's interned files.
func (w *Workflow) interned(f *File) bool { return w.files[f.Name] == f }

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
	for i, t := range w.Tasks {
		if t.ID == "" {
			return fmt.Errorf("workflow %s: task with empty ID", w.Name)
		}
		if ids[t.ID] {
			return fmt.Errorf("workflow %s: duplicate task ID %q", w.Name, t.ID)
		}
		ids[t.ID] = true
		if t.Index() != i {
			return fmt.Errorf("workflow %s: task %s was not added with AddTask", w.Name, t.ID)
		}
		if bad := amountFault(t.Runtime); bad != "" {
			return fmt.Errorf("workflow %s: task %s has %s runtime %g", w.Name, t.ID, bad, t.Runtime)
		}
		if bad := amountFault(t.PeakMemory); bad != "" {
			return fmt.Errorf("workflow %s: task %s has %s peak memory %g", w.Name, t.ID, bad, t.PeakMemory)
		}
		for _, fs := range [][]*File{t.Inputs, t.Outputs} {
			for _, f := range fs {
				if f == nil {
					return fmt.Errorf("workflow %s: task %s lists a nil file", w.Name, t.ID)
				}
				if !w.interned(f) {
					return fmt.Errorf("workflow %s: task %s lists file %q, which this workflow did not intern",
						w.Name, t.ID, f.Name)
				}
			}
		}
		for _, p := range w.extraDeps[t] {
			if !w.owns(p) {
				return fmt.Errorf("workflow %s: task %s depends on task %s, which is not in the workflow",
					w.Name, t.ID, p.ID)
			}
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
	// Producer/consumer tables by file index, needed only to derive the
	// graph.
	producers := make([]*Task, len(w.files)+1)
	consumers := make([]int32, len(w.files)+1)
	for _, t := range w.Tasks {
		for _, f := range t.Outputs {
			if prev := producers[f.index]; prev != nil {
				return fmt.Errorf("workflow %s: file %q produced by both %s and %s (write-once violated)",
					w.Name, f.Name, prev.ID, t.ID)
			}
			producers[f.index] = t
		}
	}
	for _, t := range w.Tasks {
		for _, f := range t.Inputs {
			consumers[f.index]++
		}
	}
	// Derive edges. seenBy[p.index] == t.index+1 marks p as a parent of
	// t already.
	seenBy := make([]int32, len(w.Tasks))
	for _, t := range w.Tasks {
		addParent := func(p *Task) {
			if p != nil && p != t && seenBy[p.index] != t.index+1 {
				seenBy[p.index] = t.index + 1
				t.parents = append(t.parents, p)
				p.children = append(p.children, t)
			}
		}
		for _, f := range t.Inputs {
			addParent(producers[f.index])
		}
		for _, p := range w.extraDeps[t] {
			addParent(p)
		}
	}
	// Classify workflow-level inputs and outputs.
	for _, name := range names {
		f := w.files[name]
		produced, consumed := producers[f.index] != nil, consumers[f.index] > 0
		if !produced && consumed {
			w.inputs = append(w.inputs, f)
		}
		if produced && (!consumed || f.Keep) {
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
// (Kahn's algorithm with FIFO tie-breaking by insertion order). The
// order doubles as the FIFO queue: tasks are appended as they become
// ready and visited in that order.
func (w *Workflow) TopoOrder() []*Task {
	indeg := make([]int, len(w.Tasks))
	order := make([]*Task, 0, len(w.Tasks))
	for _, t := range w.Tasks {
		indeg[t.index] = len(t.parents)
		if len(t.parents) == 0 {
			order = append(order, t)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, c := range order[i].children {
			indeg[c.index]--
			if indeg[c.index] == 0 {
				order = append(order, c)
			}
		}
	}
	return order
}

// CriticalPathTime returns the longest chain of task runtimes (computation
// only; storage time depends on the deployment), a lower bound on any
// makespan.
func (w *Workflow) CriticalPathTime() float64 {
	finish := make([]float64, len(w.Tasks))
	longest := 0.0
	for _, t := range w.TopoOrder() {
		start := 0.0
		for _, p := range t.parents {
			if finish[p.index] > start {
				start = finish[p.index]
			}
		}
		finish[t.index] = start + t.Runtime
		if finish[t.index] > longest {
			longest = finish[t.index]
		}
	}
	return longest
}
