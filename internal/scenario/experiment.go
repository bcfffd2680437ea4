package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Axis varies one spec field (by its JSON name) across a list of
// values. Values are held as `any` so an Axis takes typed Go values
// from API callers as well as values read from a spec file (numbers
// read as json.Number). SetField decodes each one as the same key of a
// spec file.
type Axis struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// Experiment is a whole serializable experiment: a base spec, the grid
// axes crossed over it, and an optional replicate count. One
// Experiment file is the entire input of a `wfbench -spec` run.
type Experiment struct {
	Base Spec   `json:"base"`
	Axes []Axis `json:"axes,omitempty"`
	// Seeds replicates every cell with deterministic per-cell seed
	// derivation (ReplicateSeed); <= 1 means single-measurement.
	Seeds int `json:"seeds,omitempty"`
}

// Cells expands the experiment into its grid: the base spec crossed
// with every axis in declaration order (the last axis varies fastest),
// each cell validated so a typo fails before any simulation starts.
func (e Experiment) Cells() ([]Spec, error) {
	cells := []Spec{e.Base}
	for _, ax := range e.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: axis %q has no values", ax.Field)
		}
		next := make([]Spec, 0, len(cells)*len(ax.Values))
		for _, c := range cells {
			for _, v := range ax.Values {
				s := c
				if err := SetField(&s, ax.Field, v); err != nil {
					return nil, err
				}
				next = append(next, s)
			}
		}
		cells = next
	}
	for i := range cells {
		if err := cells[i].Validate(); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// Write serializes the experiment as indented JSON.
func (e Experiment) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Read parses an experiment spec. Both shapes are accepted: a full
// Experiment ({"base": {...}, "axes": [...]}) or a bare Spec ({...}),
// which reads as a single-cell experiment. Unknown fields are
// rejected, so a misspelled knob fails instead of silently running the
// default.
func Read(r io.Reader) (Experiment, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Experiment{}, err
	}
	var probe struct {
		Base *Spec `json:"base"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Experiment{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if probe.Base != nil {
		var e Experiment
		if err := strictUnmarshal(data, &e); err != nil {
			return Experiment{}, fmt.Errorf("scenario: parsing experiment spec: %w", err)
		}
		return e, nil
	}
	var s Spec
	if err := strictUnmarshal(data, &s); err != nil {
		return Experiment{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return Experiment{Base: s}, nil
}

// ReadFile loads an experiment spec from a JSON file.
func ReadFile(path string) (Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return Experiment{}, err
	}
	defer f.Close()
	e, err := Read(f)
	if err != nil {
		return Experiment{}, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// strictUnmarshal is the spec decoder: unknown keys are errors, and a
// number held as `any` (an axis value) keeps its exact text as a
// json.Number, so it decodes into its field as the same literal in a
// spec's base would (a seed above 2^53 does not round through float64).
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	return dec.Decode(v)
}
