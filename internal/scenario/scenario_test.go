package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

func TestKeyNormalizesDefaults(t *testing.T) {
	base := &Spec{App: "montage", Storage: "nfs", Workers: 2}
	explicit := &Spec{App: "montage", Storage: "nfs", Workers: 2,
		WorkerType: "c1.xlarge", Seed: DefaultSeed}
	if Key(base) != Key(explicit) {
		t.Errorf("explicit defaults split the key:\n%q\nvs\n%q", Key(base), Key(explicit))
	}
	ignored := &Spec{App: "montage", Storage: "nfs", Workers: 2,
		Faults: wms.Faults{MaxRetries: 5, FailureSeed: 9, OutageDuration: 60, OutageSeed: 11}}
	if Key(base) != Key(ignored) {
		t.Errorf("inactive knob fields split the key:\n%q\nvs\n%q", Key(base), Key(ignored))
	}
	failing := &Spec{App: "montage", Storage: "nfs", Workers: 2, Faults: wms.Faults{FailureRate: 0.1}}
	if Key(base) == Key(failing) {
		t.Error("failure rate did not change the key")
	}
}

// TestRetiredFieldsRejected pins the boundary for spec fields that no
// longer exist, listed with the reason each was removed in
// testdata/retired_fields.json. A bare spec, an experiment base or an
// experiment axis naming one must fail with an error that names the
// field, instead of silently running the default.
func TestRetiredFieldsRejected(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "retired_fields.json"))
	if err != nil {
		t.Fatal(err)
	}
	var retired map[string]string
	if err := json.Unmarshal(data, &retired); err != nil {
		t.Fatal(err)
	}
	if len(retired) == 0 {
		t.Fatal("no retired fields listed")
	}
	names := make([]string, 0, len(retired))
	for name := range retired {
		names = append(names, name)
	}
	sort.Strings(names)
	const base = `"app": "montage", "storage": "nfs", "workers": 2`
	for _, name := range names {
		forms := []struct{ form, doc string }{
			{"spec", fmt.Sprintf(`{%s, %q: 2}`, base, name)},
			{"experiment base", fmt.Sprintf(`{"base": {%s, %q: 2}}`, base, name)},
			{"experiment axis", fmt.Sprintf(`{"base": {%s}, "axes": [{"field": %q, "values": [1, 2]}]}`, base, name)},
		}
		for _, f := range forms {
			e, err := Read(strings.NewReader(f.doc))
			if err == nil {
				_, err = e.Cells()
			}
			if err == nil {
				t.Errorf("%s carrying retired field %q was accepted", f.form, name)
				continue
			}
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not name the retired field %q", f.form, err, name)
			}
		}
	}
}

func TestPairKeyExcludesKnobs(t *testing.T) {
	base := &Spec{App: "montage", Storage: "nfs", Workers: 2}
	knobbed := &Spec{App: "montage", Storage: "nfs", Workers: 2,
		Seed: 7, AppSeed: 3, Faults: wms.Faults{FailureRate: 0.1, OutageRate: 1, CheckpointInterval: 60}}
	if PairKey(base) != PairKey(knobbed) {
		t.Errorf("knobs changed the pairing hash:\n%q\nvs\n%q", PairKey(base), PairKey(knobbed))
	}
	for rep := 1; rep < 4; rep++ {
		// Same pairing key but different base seeds must still derive
		// different replicate seeds.
		if ReplicateSeed(base, rep) == ReplicateSeed(knobbed, rep) {
			t.Errorf("replicate %d ignored the base seed", rep)
		}
	}
}

func TestReseedOnlyActiveStreams(t *testing.T) {
	s := &Spec{App: "montage", Storage: "nfs", Workers: 2}
	Reseed(s, 42)
	if s.Seed != 42 || s.AppSeed != 42 {
		t.Errorf("jitter seeds not reseeded: %+v", s)
	}
	if s.FailureSeed != 0 || s.OutageSeed != 0 {
		t.Errorf("inactive streams reseeded: %+v", s)
	}
	f := &Spec{App: "montage", Storage: "nfs", Workers: 2, Faults: wms.Faults{FailureRate: 0.1, OutageRate: 1}}
	Reseed(f, 42)
	if f.FailureSeed == 0 || f.OutageSeed == 0 {
		t.Errorf("active streams not reseeded: %+v", f)
	}
	if f.FailureSeed == f.OutageSeed || f.FailureSeed == 42 || f.OutageSeed == 42 {
		t.Errorf("streams not decorrelated: %+v", f)
	}
}

// TestInMemoryFieldsStayInMemory pins the boundary of the two fields a
// Spec holds only in memory: Workflow and Replicate change no
// serialized form, key or reseed, and no file, flag or axis can set
// them.
func TestInMemoryFieldsStayInMemory(t *testing.T) {
	plain := Spec{App: "montage", Storage: "nfs", Workers: 2, Seed: 7, Faults: wms.Faults{FailureRate: 0.1}}
	mem := plain
	mem.Workflow = workflow.New("custom")
	mem.Replicate = 3
	pj, err := plain.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	mj, err := mem.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(pj) != string(mj) {
		t.Errorf("CanonicalJSON carries in-memory fields:\n got %s\nwant %s", mj, pj)
	}
	if Key(&mem) != Key(&plain) {
		t.Errorf("Key carries in-memory fields:\n got %q\nwant %q", Key(&mem), Key(&plain))
	}
	if PairKey(&mem) != PairKey(&plain) {
		t.Errorf("PairKey carries in-memory fields:\n got %q\nwant %q", PairKey(&mem), PairKey(&plain))
	}
	reseeded := mem
	Reseed(&reseeded, 42)
	if reseeded.Workflow != mem.Workflow || reseeded.Replicate != mem.Replicate {
		t.Errorf("Reseed touched in-memory fields: %+v", reseeded)
	}

	for _, doc := range []string{
		`{"app": "montage", "storage": "nfs", "workers": 2, "replicate": 1}`,
		`{"app": "montage", "storage": "nfs", "workers": 2, "Replicate": 1}`,
		`{"app": "montage", "storage": "nfs", "workers": 2, "Workflow": {}}`,
		`{"base": {"app": "montage", "storage": "nfs", "workers": 2, "replicate": 1}}`,
	} {
		if _, err := Read(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("Read(%s) = %v, want an unknown-field error", doc, err)
		}
	}

	s := plain
	for _, field := range []string{"replicate", "Replicate", "workflow", "Workflow"} {
		if err := SetField(&s, field, 1); err == nil {
			t.Errorf("SetField accepted in-memory field %q", field)
		}
	}
	for _, name := range append(FlagNames(true), AxisFields()...) {
		if l := strings.ToLower(name); strings.Contains(l, "replicate") || strings.Contains(l, "workflow") {
			t.Errorf("flag or axis %q exposes an in-memory field", name)
		}
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		spec Spec
		kind string
	}{
		{Spec{App: "montag", Storage: "nfs", Workers: 2}, "application"},
		{Spec{App: "montage", Storage: "glusterfs", Workers: 2}, "storage system"},
		{Spec{App: "montage", Storage: "nfs", Workers: 2, WorkerType: "t2.micro"}, "worker type"},
		{Spec{Storage: "nfs", Workers: 2}, "application"}, // no App and no Workflow
		{Spec{App: "montag", Storage: "nfs", Workers: 2, Workflow: workflow.New("custom")}, "application"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		var unknown *UnknownNameError
		if !errors.As(err, &unknown) {
			t.Fatalf("Validate(%+v) = %v, want *UnknownNameError", c.spec, err)
		}
		if unknown.Kind != c.kind {
			t.Errorf("Kind = %q, want %q", unknown.Kind, c.kind)
		}
		if len(unknown.Valid) == 0 || !strings.Contains(err.Error(), unknown.Valid[0]) {
			t.Errorf("error %q does not list the valid names %v", err, unknown.Valid)
		}
	}
	for _, ok := range []Spec{
		{App: "montage", Storage: "nfs", Workers: 2},
		{Storage: "nfs", Workers: 2, Workflow: workflow.New("custom")},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", ok, err)
		}
	}
}

// TestValidateWorkerBounds: a cell the storage system cannot form fails
// Validate with the catalog's *storage.WorkersError.
func TestValidateWorkerBounds(t *testing.T) {
	for _, c := range []struct {
		storage string
		workers int
	}{{"gluster-nufa", 1}, {"pvfs", 1}, {"local", 2}} {
		s := Spec{App: "epigenome", Storage: c.storage, Workers: c.workers}
		var we *storage.WorkersError
		if err := s.Validate(); !errors.As(err, &we) || we.System != c.storage || we.Workers != c.workers {
			t.Errorf("Validate(%s/%d) = %v, want a *storage.WorkersError for it", c.storage, c.workers, err)
		}
	}
}

// TestSetFieldDecodesLikeSpecFile: an axis value lands in the spec
// exactly as the same key and JSON value of a spec file does, and fails
// where the spec file fails. Each of the 16 fields gets a valid value,
// a wrong-type value, and, by kind, a fraction (integers) or a negative
// number (seeds).
func TestSetFieldDecodesLikeSpecFile(t *testing.T) {
	kinds := map[string]string{
		"app": "string", "storage": "string", "worker_type": "string",
		"data_aware": "bool", "initialize_disks": "bool",
		"workers": "int", "max_retries": "int",
		"seed": "seed", "app_seed": "seed", "failure_seed": "seed", "outage_seed": "seed",
		"initialize_bytes": "float", "failure_rate": "float", "outage_rate": "float",
		"outage_duration": "float", "checkpoint_interval": "float",
	}
	values := map[string][]struct {
		json string
		ok   bool
	}{
		"string": {{`"montage"`, true}, {`4`, false}},
		"bool":   {{`true`, true}, {`"true"`, false}},
		"int":    {{`4`, true}, {`-3`, true}, {`"4"`, false}, {`2.5`, false}},
		"seed":   {{`7`, true}, {`18446744073709551615`, true}, {`"7"`, false}, {`1.5`, false}, {`-1`, false}},
		"float":  {{`0.25`, true}, {`3`, true}, {`"0.25"`, false}, {`false`, false}},
	}
	fields := make([]string, 0, len(kinds))
	for f := range kinds {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	if !reflect.DeepEqual(AxisFields(), fields) {
		t.Fatalf("AxisFields() = %v, want %v", AxisFields(), fields)
	}
	for _, field := range fields {
		for _, val := range values[kinds[field]] {
			file, fileErr := Read(strings.NewReader(fmt.Sprintf(`{%q: %s}`, field, val.json)))
			grid, err := Read(strings.NewReader(fmt.Sprintf(
				`{"base": {}, "axes": [{"field": %q, "values": [%s]}]}`, field, val.json)))
			if err != nil {
				t.Fatal(err)
			}
			var axis Spec
			axisErr := SetField(&axis, field, grid.Axes[0].Values[0])
			if (fileErr == nil) != val.ok || (axisErr == nil) != val.ok {
				t.Errorf("%s = %s: spec file err %v, axis err %v, want ok=%t", field, val.json, fileErr, axisErr, val.ok)
				continue
			}
			if val.ok && axis != file.Base {
				t.Errorf("%s = %s: axis gave %+v, spec file %+v", field, val.json, axis, file.Base)
			}
			if !val.ok && !strings.Contains(axisErr.Error(), "axis "+field) {
				t.Errorf("%s = %s: error %q does not name the axis", field, val.json, axisErr)
			}
		}
	}
	// Typed Go values decode as their JSON encoding does.
	var s Spec
	for _, set := range []struct {
		field string
		v     any
	}{{"workers", 4}, {"seed", uint64(1) << 63}, {"failure_rate", float32(0.5)}, {"max_retries", int64(2)}} {
		if err := SetField(&s, set.field, set.v); err != nil {
			t.Errorf("SetField(%s, %T %v) = %v", set.field, set.v, set.v, err)
		}
	}
	want := Spec{Workers: 4, Seed: 1 << 63, Faults: wms.Faults{FailureRate: 0.5, MaxRetries: 2}}
	if s != want {
		t.Errorf("typed values gave %+v, want %+v", s, want)
	}
}

// TestSetFieldRejectsNonValues: null (which encoding/json treats as
// "leave the field alone"), NaN and infinities fail with an error that
// names the axis, and a field name must match a JSON key exactly.
func TestSetFieldRejectsNonValues(t *testing.T) {
	var nilSpec *Spec
	for _, c := range []struct {
		field string
		v     any
	}{
		{"workers", nil},
		{"app", nilSpec},
		{"initialize_bytes", math.NaN()},
		{"failure_rate", math.Inf(1)},
		{"outage_rate", math.Inf(-1)},
	} {
		s := Spec{Workers: 2}
		err := SetField(&s, c.field, c.v)
		if err == nil || !strings.Contains(err.Error(), "axis "+c.field) {
			t.Errorf("SetField(%s, %v) = %v, want an error naming the axis", c.field, c.v, err)
		}
	}
	for _, field := range []string{"Workers", "replicate", "workflow"} {
		s := Spec{}
		err := SetField(&s, field, 2)
		if err == nil || !strings.Contains(err.Error(), strings.Join(AxisFields(), ", ")) {
			t.Errorf("SetField(%q) = %v, want an error listing the valid fields", field, err)
		}
	}
	e, err := Read(strings.NewReader(`{"base": {"app": "epigenome", "storage": "nfs", "workers": 2},
		"axes": [{"field": "workers", "values": [null, 4]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if cells, err := e.Cells(); err == nil {
		t.Errorf("a null axis value expanded to %d cells", len(cells))
	}
}

// TestSpecFileRejectsBadKnobs: the out-of-range knob values a JSON spec
// can carry fail Cells with a *wms.FaultError naming the field, even
// where the rate switches the knob off.
func TestSpecFileRejectsBadKnobs(t *testing.T) {
	for _, tc := range []struct{ field, knobs string }{
		{"failure_rate", `"failure_rate": 1`},
		{"max_retries", `"max_retries": -1`},
		{"outage_rate", `"outage_rate": -0.5`},
		{"outage_duration", `"outage_rate": 1, "outage_duration": -5`},
		{"checkpoint_interval", `"checkpoint_interval": -60`},
	} {
		e, err := Read(strings.NewReader(`{"app": "montage", "storage": "nfs", "workers": 2, ` + tc.knobs + `}`))
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Cells()
		var fe *wms.FaultError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("spec with %s: err = %v, want a *wms.FaultError for %s", tc.knobs, err, tc.field)
		}
	}
}

// TestValidateInitializeBytes: a NaN, infinite or negative
// initialize_bytes fails with a *RangeError naming the key, whether or
// not initialize_disks is set. A NaN once gave every disk a free
// initialization, and a negative count ran as a full fill but keyed as
// its own cell. JSON cannot carry a NaN, so a spec file tries -1e12.
func TestValidateInitializeBytes(t *testing.T) {
	check := func(what string, err error) {
		t.Helper()
		var re *RangeError
		if !errors.As(err, &re) || re.Field != "initialize_bytes" {
			t.Errorf("%s: err = %v, want a *RangeError for initialize_bytes", what, err)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, on := range []bool{false, true} {
			s := Spec{App: "epigenome", Storage: "nfs", Workers: 2, InitializeDisks: on, InitializeBytes: v}
			check(fmt.Sprintf("Validate(%g, initialize_disks %t)", v, on), s.Validate())
		}
	}
	e, err := Read(strings.NewReader(`{"app": "epigenome", "storage": "nfs", "workers": 2, "initialize_disks": true, "initialize_bytes": -1e12}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Cells()
	check("spec file with initialize_bytes -1e12", err)
	for _, v := range []float64{0, 50e9} {
		s := Spec{App: "epigenome", Storage: "nfs", Workers: 2, InitializeDisks: true, InitializeBytes: v}
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(initialize_bytes %g) = %v", v, err)
		}
	}
}

func TestExperimentCells(t *testing.T) {
	e := Experiment{
		Base: Spec{App: "montage", Storage: "nfs", Workers: 1},
		Axes: []Axis{
			{Field: "storage", Values: []any{"nfs", "s3"}},
			{Field: "workers", Values: []any{2.0, 4}}, // float from JSON, int from Go
		},
	}
	cells, err := e.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	want := []Spec{
		{App: "montage", Storage: "nfs", Workers: 2},
		{App: "montage", Storage: "nfs", Workers: 4},
		{App: "montage", Storage: "s3", Workers: 2},
		{App: "montage", Storage: "s3", Workers: 4},
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("cell %d = %+v, want %+v", i, cells[i], want[i])
		}
	}
}

func TestExperimentCellsRejectsBadAxis(t *testing.T) {
	e := Experiment{
		Base: Spec{App: "montage", Storage: "nfs", Workers: 2},
		Axes: []Axis{{Field: "nodes", Values: []any{1}}},
	}
	if _, err := e.Cells(); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("unknown axis error %v should list valid fields", err)
	}
	typo := Experiment{
		Base: Spec{App: "montage", Storage: "nfs", Workers: 2},
		Axes: []Axis{{Field: "storage", Values: []any{"glusterfs"}}},
	}
	var unknown *UnknownNameError
	if _, err := typo.Cells(); !errors.As(err, &unknown) {
		t.Errorf("axis typo error = %v, want *UnknownNameError", err)
	}
}

func TestExperimentReadBothShapes(t *testing.T) {
	full := `{"base": {"app": "montage", "storage": "nfs", "workers": 2}, "seeds": 3}`
	e, err := Read(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if e.Base.App != "montage" || e.Seeds != 3 {
		t.Errorf("experiment form misparsed: %+v", e)
	}
	bare := `{"app": "broadband", "storage": "s3", "workers": 4, "outage_rate": 1.5}`
	e, err = Read(strings.NewReader(bare))
	if err != nil {
		t.Fatal(err)
	}
	if e.Base.Storage != "s3" || e.Base.OutageRate != 1.5 || e.Seeds != 0 {
		t.Errorf("bare-spec form misparsed: %+v", e)
	}
	if _, err := Read(strings.NewReader(`{"app": "montage", "strage": "nfs"}`)); err == nil {
		t.Error("misspelled field accepted")
	}
}

func TestExperimentWriteReadRoundTrip(t *testing.T) {
	e := Experiment{
		Base:  Spec{App: "epigenome", Storage: "pvfs", Workers: 4, Faults: wms.Faults{FailureRate: 0.1, MaxRetries: 5}},
		Axes:  []Axis{{Field: "outage_rate", Values: []any{0.5, 1.0}}},
		Seeds: 5,
	}
	var b strings.Builder
	if err := e.Write(&b); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := e.Cells()
	if err != nil {
		t.Fatal(err)
	}
	backCells, err := back.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, backCells) || back.Seeds != e.Seeds {
		t.Errorf("round trip changed the experiment:\n got %+v\nwant %+v", back, e)
	}
}

// FuzzSpecRoundTrip asserts the two invariants every spec must hold:
// JSON round-trips are lossless, and the canonical key is stable across
// them (the serialized form memoizes identically to the original).
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add("montage", "nfs", 2, "c1.xlarge", false, uint64(0), uint64(0), false, 0.0, 0.0, 0, uint64(0), 0.0, 0.0, uint64(0), 0.0)
	f.Add("broadband", "s3", 8, "", true, uint64(7), uint64(3), true, 50e9, 0.1, 5, uint64(9), 1.5, 90.0, uint64(11), 60.5)
	f.Add("a|b", "c:d", -1, "weird\"type", false, ^uint64(0), uint64(1)<<63, true, -1e12, -0.5, -3, uint64(1), 1e300, -1e-9, ^uint64(0)>>1, 0.0)
	f.Fuzz(func(t *testing.T, app, storage string, workers int, wt string, aware bool,
		seed, appSeed uint64, initDisks bool, initBytes float64, failRate float64, retries int, failSeed uint64,
		outRate, outDur float64, outSeed uint64, ckpt float64) {
		for _, name := range []string{app, storage, wt} {
			if !utf8.ValidString(name) {
				t.Skip() // JSON cannot represent invalid UTF-8 losslessly
			}
		}
		s := Spec{
			App: app, Storage: storage, Workers: workers, WorkerType: wt,
			DataAware: aware, Seed: seed, AppSeed: appSeed,
			InitializeDisks: initDisks, InitializeBytes: initBytes,
			Faults: wms.Faults{
				FailureRate: failRate, MaxRetries: retries, FailureSeed: failSeed,
				OutageRate: outRate, OutageDuration: outDur, OutageSeed: outSeed,
				CheckpointInterval: ckpt,
			},
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Skip() // NaN/Inf floats are unrepresentable in JSON
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal(%s): %v", data, err)
		}
		if back != s {
			t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", back, s)
		}
		if Key(&back) != Key(&s) {
			t.Fatalf("round trip changed the canonical key:\n got %q\nwant %q", Key(&back), Key(&s))
		}
		if PairKey(&back) != PairKey(&s) {
			t.Fatalf("round trip changed the pairing key")
		}
	})
}
