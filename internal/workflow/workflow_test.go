package workflow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ec2wfsim/internal/rng"
)

// diamond builds the classic 4-task diamond:
//
//	a -> b, a -> c, b -> d, c -> d
//
// linked purely through files.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	in := w.File("in.dat", 100)
	fb := w.File("b.dat", 10)
	fc := w.File("c.dat", 20)
	out := w.File("out.dat", 5)
	w.AddTask(&Task{ID: "a", Transformation: "split", Runtime: 1, Inputs: []*File{in}, Outputs: []*File{fb, fc}})
	w.AddTask(&Task{ID: "b", Transformation: "work", Runtime: 2, Inputs: []*File{fb}, Outputs: []*File{w.File("b2.dat", 7)}})
	w.AddTask(&Task{ID: "c", Transformation: "work", Runtime: 3, Inputs: []*File{fc}, Outputs: []*File{w.File("c2.dat", 8)}})
	w.AddTask(&Task{ID: "d", Transformation: "merge", Runtime: 4,
		Inputs:  []*File{w.File("b2.dat", 7), w.File("c2.dat", 8)},
		Outputs: []*File{out}})
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

// Roots returns tasks with no parents.
func (w *Workflow) Roots() []*Task {
	var rs []*Task
	for _, t := range w.Tasks {
		if len(t.parents) == 0 {
			rs = append(rs, t)
		}
	}
	return rs
}

func TestDiamondDependencies(t *testing.T) {
	w := diamond(t)
	byID := map[string]*Task{}
	for _, task := range w.Tasks {
		byID[task.ID] = task
	}
	if len(byID["a"].Parents()) != 0 {
		t.Error("a should have no parents")
	}
	if len(byID["a"].Children()) != 2 {
		t.Errorf("a children = %d, want 2", len(byID["a"].Children()))
	}
	if len(byID["d"].Parents()) != 2 {
		t.Errorf("d parents = %d, want 2", len(byID["d"].Parents()))
	}
	if got := len(w.Roots()); got != 1 {
		t.Errorf("roots = %d, want 1", got)
	}
}

func TestInputsOutputsClassification(t *testing.T) {
	w := diamond(t)
	ins := w.Inputs()
	if len(ins) != 1 || ins[0].Name != "in.dat" {
		t.Errorf("Inputs = %v, want [in.dat]", ins)
	}
	outs := w.Outputs()
	if len(outs) != 1 || outs[0].Name != "out.dat" {
		t.Errorf("Outputs = %v, want [out.dat]", outs)
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	w := diamond(t)
	order := w.TopoOrder()
	if len(order) != 4 {
		t.Fatalf("topo order has %d tasks, want 4", len(order))
	}
	pos := map[string]int{}
	for i, task := range order {
		pos[task.ID] = i
	}
	if pos["a"] > pos["b"] || pos["a"] > pos["c"] || pos["b"] > pos["d"] || pos["c"] > pos["d"] {
		t.Errorf("topo order violates dependencies: %v", pos)
	}
}

func TestCriticalPath(t *testing.T) {
	w := diamond(t)
	// a(1) -> c(3) -> d(4) = 8.
	if got := w.CriticalPathTime(); got != 8 {
		t.Errorf("CriticalPathTime = %g, want 8", got)
	}
}

func TestCycleDetection(t *testing.T) {
	w := New("cyclic")
	f1 := w.File("f1", 1)
	f2 := w.File("f2", 1)
	w.AddTask(&Task{ID: "x", Inputs: []*File{f1}, Outputs: []*File{f2}})
	w.AddTask(&Task{ID: "y", Inputs: []*File{f2}, Outputs: []*File{f1}})
	if err := w.Finalize(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Finalize = %v, want cycle error", err)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	w := New("dup")
	w.AddTask(&Task{ID: "x"})
	w.AddTask(&Task{ID: "x"})
	if err := w.Finalize(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Finalize = %v, want duplicate-ID error", err)
	}
}

func TestWriteOnceViolationRejected(t *testing.T) {
	w := New("ww")
	f := w.File("f", 1)
	w.AddTask(&Task{ID: "x", Outputs: []*File{f}})
	w.AddTask(&Task{ID: "y", Outputs: []*File{f}})
	if err := w.Finalize(); err == nil || !strings.Contains(err.Error(), "write-once") {
		t.Errorf("Finalize = %v, want write-once error", err)
	}
}

// TestFinalizeRejectsBadAmounts pins the workflow boundary: a negative
// or non-finite runtime, peak memory or file size is an error from
// Finalize, never a panic deeper in the simulation; zero is valid.
func TestFinalizeRejectsBadAmounts(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		size, runtime, peakMem float64
		want                   string // "" = valid
	}{
		{"zero everywhere", 0, 0, 0, ""},
		{"negative size", -200000, 1, 1, `file "out" has negative size -200000`},
		{"NaN size", math.NaN(), 1, 1, `file "out" has non-finite size NaN`},
		{"infinite size", math.Inf(1), 1, 1, `file "out" has non-finite size +Inf`},
		{"negative runtime", 1, -5.5, 1, "task x has negative runtime -5.5"},
		{"NaN runtime", 1, math.NaN(), 1, "task x has non-finite runtime NaN"},
		{"infinite runtime", 1, math.Inf(1), 1, "task x has non-finite runtime +Inf"},
		{"negative peak memory", 1, 1, -6e7, "task x has negative peak memory -6e+07"},
		{"NaN peak memory", 1, 1, math.NaN(), "task x has non-finite peak memory NaN"},
		{"infinite peak memory", 1, 1, math.Inf(-1), "task x has non-finite peak memory -Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := New("amounts")
			w.AddTask(&Task{ID: "x", Runtime: tc.runtime, PeakMemory: tc.peakMem,
				Inputs: []*File{w.File("in", 1)}, Outputs: []*File{w.File("out", tc.size)}})
			err := w.Finalize()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Finalize = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Finalize = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestFinalizeReportsFirstBadFileByName pins which of several bad files
// Finalize reports: the first in name order, whatever the declaration
// order, so the error does not depend on map iteration.
func TestFinalizeReportsFirstBadFileByName(t *testing.T) {
	for i := 0; i < 20; i++ {
		w := New("names")
		for _, name := range []string{"zeta", "beta", "alpha-ok", "gamma"} {
			size := -1.0
			if name == "alpha-ok" {
				size = 1
			}
			w.AddTask(&Task{ID: "t-" + name, Outputs: []*File{w.File(name, size)}})
		}
		err := w.Finalize()
		if err == nil || !strings.Contains(err.Error(), `file "beta" has negative size`) {
			t.Fatalf("Finalize = %v, want the error for file \"beta\"", err)
		}
	}
}

func TestExplicitControlDependency(t *testing.T) {
	w := New("ctl")
	a := w.AddTask(&Task{ID: "mkdir", Runtime: 1})
	b := w.AddTask(&Task{ID: "job", Runtime: 1})
	w.AddDependency(a, b)
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if len(b.Parents()) != 1 || b.Parents()[0] != a {
		t.Error("control dependency not derived")
	}
}

func TestFileInterning(t *testing.T) {
	w := New("intern")
	f1 := w.File("same", 10)
	f2 := w.File("same", 999) // second size ignored
	if f1 != f2 {
		t.Error("File did not intern by name")
	}
	if f1.Size != 10 {
		t.Errorf("size = %g, want first-wins 10", f1.Size)
	}
}

// TestDenseIndices pins the index layout per-file and per-task tables
// rely on: interned files take 1..NumFiles() in interning order, tasks
// take their position in Tasks, and a task file of t takes
// NumFiles()+1+t.Index(). File stays 32 bytes: the index fills the
// padding after Keep.
func TestDenseIndices(t *testing.T) {
	w := diamond(t)
	names := []string{"in.dat", "b.dat", "c.dat", "out.dat", "b2.dat", "c2.dat"}
	if w.NumFiles() != len(names) {
		t.Fatalf("NumFiles = %d, want %d", w.NumFiles(), len(names))
	}
	for _, f := range w.Files() {
		if want := slices.Index(names, f.Name) + 1; f.Index() != want {
			t.Errorf("%s: Index = %d, want %d", f.Name, f.Index(), want)
		}
	}
	for i, task := range w.Tasks {
		if task.Index() != i {
			t.Errorf("task %s: Index = %d, want %d", task.ID, task.Index(), i)
		}
	}
	d := w.Tasks[3]
	if got, want := w.TaskFile(d, "ckpt", 1).Index(), len(names)+1+3; got != want {
		t.Errorf("TaskFile index = %d, want %d", got, want)
	}
	if (&File{}).Index() != 0 {
		t.Error("a File no workflow interned has a non-zero index")
	}
	if size := unsafe.Sizeof(File{}); size != 32 {
		t.Errorf("File is %d bytes, want 32", size)
	}
}

// TestFileAfterFinalizePanics: the file set is fixed at Finalize, as the
// task set is.
func TestFileAfterFinalizePanics(t *testing.T) {
	w := diamond(t)
	defer func() {
		if recover() == nil {
			t.Error("File after Finalize did not panic")
		}
	}()
	w.File("late.dat", 1)
}

// TestFinalizeRejectsForeignFilesAndTasks: every file a task lists must
// be one this workflow interned, and every task must have been added
// with AddTask, or the per-file and per-task tables would mix them up.
func TestFinalizeRejectsForeignFilesAndTasks(t *testing.T) {
	other := New("other")
	for _, tc := range []struct {
		name  string
		build func(w *Workflow)
		want  string
	}{
		{"literal input", func(w *Workflow) {
			w.AddTask(&Task{ID: "x", Inputs: []*File{{Name: "loose", Size: 1}}})
		}, `task x lists file "loose", which this workflow did not intern`},
		{"other workflow's output", func(w *Workflow) {
			w.File("mine", 1)
			w.AddTask(&Task{ID: "y", Outputs: []*File{other.File("theirs", 1)}})
		}, `task y lists file "theirs", which this workflow did not intern`},
		{"nil file", func(w *Workflow) {
			w.AddTask(&Task{ID: "z", Inputs: []*File{nil}})
		}, "task z lists a nil file"},
		{"appended task", func(w *Workflow) {
			w.AddTask(&Task{ID: "a"})
			w.Tasks = append(w.Tasks, &Task{ID: "b"})
		}, "task b was not added with AddTask"},
		{"control edge from a foreign task", func(w *Workflow) {
			child := w.AddTask(&Task{ID: "c"})
			w.AddDependency(&Task{ID: "ghost"}, child)
		}, "task c depends on task ghost, which is not in the workflow"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := New("foreign")
			tc.build(w)
			if err := w.Finalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Finalize = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestStats(t *testing.T) {
	w := diamond(t)
	s := w.ComputeStats()
	if s.TaskCount != 4 {
		t.Errorf("TaskCount = %d, want 4", s.TaskCount)
	}
	if s.InputBytes != 100 {
		t.Errorf("InputBytes = %g, want 100", s.InputBytes)
	}
	if s.OutputBytes != 5 {
		t.Errorf("OutputBytes = %g, want 5", s.OutputBytes)
	}
	if s.TotalRuntime != 10 {
		t.Errorf("TotalRuntime = %g, want 10", s.TotalRuntime)
	}
	// accesses: a(1+2) + b(1+1) + c(1+1) + d(2+1) = 10
	if s.FileAccesses != 10 {
		t.Errorf("FileAccesses = %d, want 10", s.FileAccesses)
	}
	if len(s.ByTransformation) != 3 {
		t.Errorf("transformations = %d, want 3", len(s.ByTransformation))
	}
	// ByTransformation is sorted by name: merge, split, work.
	if s.ByTransformation[0].Name != "merge" || s.ByTransformation[2].Count != 2 {
		t.Errorf("ByTransformation wrong: %+v", s.ByTransformation)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := diamond(t)
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.Tasks) != len(w.Tasks) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(w2.Tasks), len(w.Tasks))
	}
	s1, s2 := w.ComputeStats(), w2.ComputeStats()
	if s1.InputBytes != s2.InputBytes || s1.TotalRuntime != s2.TotalRuntime ||
		s1.FileAccesses != s2.FileAccesses {
		t.Errorf("stats differ after round trip: %+v vs %+v", s1, s2)
	}
	if w2.CriticalPathTime() != w.CriticalPathTime() {
		t.Error("critical path changed after round trip")
	}
}

func TestJSONRejectsUndeclaredFiles(t *testing.T) {
	bad := `{"name":"x","files":[],"tasks":[{"id":"t","transformation":"f","runtime":1,"inputs":["ghost"]}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Error("expected error for undeclared input file")
	}
}

// randomDAG builds a random layered DAG; used by the property tests.
func randomDAG(seed uint64, nTasks int) *Workflow {
	r := rng.New(seed)
	w := New("random")
	var prev []*File
	for i := 0; i < nTasks; i++ {
		t := &Task{ID: string(rune('A'+i%26)) + string(rune('0'+i/26)), Transformation: "t", Runtime: float64(r.Intn(10) + 1)}
		// Consume up to 2 files from earlier layers.
		for k := 0; k < 2 && len(prev) > 0; k++ {
			t.Inputs = append(t.Inputs, prev[r.Intn(len(prev))])
		}
		out := w.File(t.ID+".out", float64(r.Intn(100)+1))
		t.Outputs = []*File{out}
		w.AddTask(t)
		prev = append(prev, out)
	}
	if err := w.Finalize(); err != nil {
		panic(err)
	}
	return w
}

// Property: topological order always contains every task exactly once and
// never places a child before a parent.
func TestPropertyTopoOrderValid(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		nTasks := int(n%50) + 1
		w := randomDAG(seed, nTasks)
		order := w.TopoOrder()
		if len(order) != nTasks {
			return false
		}
		pos := make(map[*Task]int, len(order))
		for i, task := range order {
			pos[task] = i
		}
		for _, task := range order {
			for _, p := range task.Parents() {
				if pos[p] >= pos[task] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: critical path time is at most the serial runtime and at least
// the longest single task.
func TestPropertyCriticalPathBounds(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		w := randomDAG(seed, int(n%50)+1)
		cp := w.CriticalPathTime()
		serial, longest := 0.0, 0.0
		for _, task := range w.Tasks {
			serial += task.Runtime
			if task.Runtime > longest {
				longest = task.Runtime
			}
		}
		return cp >= longest && cp <= serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trip preserves the task count and edge count for
// arbitrary random DAGs.
func TestPropertyJSONRoundTripPreservesShape(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		w := randomDAG(seed, int(n%30)+1)
		var buf bytes.Buffer
		if err := w.WriteJSON(&buf); err != nil {
			return false
		}
		w2, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		edges := func(wf *Workflow) int {
			total := 0
			for _, task := range wf.Tasks {
				total += len(task.Parents())
			}
			return total
		}
		return len(w2.Tasks) == len(w.Tasks) && edges(w2) == edges(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWriteJSONDepsDeterministic pins the serialization order of extra
// (control) dependencies. WriteJSON used to iterate the extraDeps map
// directly, so the "deps" array came out in random map order — two runs
// of the same program could serialize the same workflow to different
// bytes, breaking any golden or content-addressed artifact built on the
// JSON form. Deps must now appear in task declaration order regardless
// of AddDependency call order.
func TestWriteJSONDepsDeterministic(t *testing.T) {
	build := func(order []int) *Workflow {
		w := New("deps")
		tasks := make([]*Task, 8)
		for i := range tasks {
			tasks[i] = w.AddTask(&Task{ID: fmt.Sprintf("t%d", i), Runtime: 1})
		}
		// Register child deps in the caller's order; many distinct map
		// keys makes iteration-order leakage all but certain to show.
		for _, i := range order {
			if i > 0 {
				w.AddDependency(tasks[i-1], tasks[i])
			}
		}
		return w
	}
	forward := make([]int, 8)
	backward := make([]int, 8)
	for i := range forward {
		forward[i] = i
		backward[i] = len(backward) - 1 - i
	}
	var a, b bytes.Buffer
	if err := build(forward).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build(backward).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("WriteJSON depends on AddDependency order:\n%s\nvs\n%s", a.String(), b.String())
	}
	// And the order is the declared task order, not just *an* order.
	var jw struct {
		Deps []struct{ Parent, Child string } `json:"controlDeps"`
	}
	if err := json.Unmarshal(a.Bytes(), &jw); err != nil {
		t.Fatal(err)
	}
	if len(jw.Deps) != 7 {
		t.Fatalf("got %d deps, want 7", len(jw.Deps))
	}
	for i, d := range jw.Deps {
		if want := fmt.Sprintf("t%d", i+1); d.Child != want {
			t.Errorf("deps[%d].Child = %q, want %q (task declaration order)", i, d.Child, want)
		}
	}
}
