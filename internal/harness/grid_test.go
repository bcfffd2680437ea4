package harness

// Cell labels an (application, storage, workers) result in a figure grid.
type Cell struct {
	System  string
	Workers int
	Result  *RunResult
}

// Grid runs the paper's sweep for an application (GridConfigs) through
// the memoized sweep engine, so the tests that revisit a grid pay for it
// once per process.
func Grid(app string) ([]Cell, error) {
	cfgs := GridConfigs(app)
	results, err := Sweep(cfgs, SweepOptions{})
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(cfgs))
	for i, r := range results {
		cells[i] = Cell{System: cfgs[i].Storage, Workers: cfgs[i].Workers, Result: r}
	}
	return cells, nil
}

// Find returns the cell for (system, workers), or nil.
func Find(cells []Cell, system string, workers int) *Cell {
	for i := range cells {
		if cells[i].System == system && cells[i].Workers == workers {
			return &cells[i]
		}
	}
	return nil
}
