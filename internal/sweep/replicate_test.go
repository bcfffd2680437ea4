package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// repUnit is the derived configuration for one (cell, replicate) pair in
// these tests: enough structure to verify placement and derivation.
type repUnit struct {
	Cell int
	Rep  int
}

func deriveUnit(cell repUnit, rep int) repUnit {
	return repUnit{Cell: cell.Cell, Rep: rep}
}

// runUnit is a deterministic runner whose result encodes its unit.
func runUnit(u repUnit) (int, error) {
	return u.Cell*100 + u.Rep, nil
}

func repCells(n int) []repUnit {
	cells := make([]repUnit, n)
	for i := range cells {
		cells[i] = repUnit{Cell: i}
	}
	return cells
}

func TestMapReplicatesPlacesBySeedIndex(t *testing.T) {
	t.Parallel()
	cells := repCells(6)
	for _, parallel := range []int{1, 4, 16} {
		e := &Engine[repUnit, int]{Run: runUnit, Parallel: parallel}
		got, err := e.MapReplicates(context.Background(), cells, 5, deriveUnit, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cells) {
			t.Fatalf("parallel=%d: %d cells, want %d", parallel, len(got), len(cells))
		}
		for cell, runs := range got {
			if len(runs) != 5 {
				t.Fatalf("parallel=%d: cell %d has %d runs, want 5", parallel, cell, len(runs))
			}
			for rep, r := range runs {
				if r != cell*100+rep {
					t.Errorf("parallel=%d: [%d][%d] = %d, want %d", parallel, cell, rep, r, cell*100+rep)
				}
			}
		}
	}
}

func TestMapReplicatesDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	cells := repCells(8)
	run := func(p int) [][]int {
		e := &Engine[repUnit, int]{Run: runUnit, Parallel: p}
		got, err := e.MapReplicates(context.Background(), cells, 4, deriveUnit, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if serial, concurrent := run(1), run(8); !reflect.DeepEqual(serial, concurrent) {
		t.Errorf("parallel 1 vs 8 differ:\n%v\n%v", serial, concurrent)
	}
}

func TestMapReplicatesReduceStreamsInCellOrder(t *testing.T) {
	t.Parallel()
	cells := repCells(10)
	// A blocking runner releases units in an adversarial order: the last
	// flattened unit first, then backwards. The reduction order must
	// still be cell 0, 1, 2, ... — buffered, not completion-driven.
	const seeds = 3
	total := len(cells) * seeds
	release := make([]chan struct{}, total)
	for i := range release {
		release[i] = make(chan struct{})
	}
	started := make(chan int, total)
	e := &Engine[repUnit, int]{
		Run: func(u repUnit) (int, error) {
			i := u.Cell*seeds + u.Rep
			started <- i
			<-release[i]
			return u.Cell*100 + u.Rep, nil
		},
		Parallel: total,
	}
	go func() {
		seen := make(map[int]bool)
		for i := range started {
			seen[i] = true
			if len(seen) == total {
				break
			}
		}
		for i := total - 1; i >= 0; i-- {
			close(release[i])
		}
	}()
	var order []int
	var rows [][]int
	_, err := e.MapReplicates(context.Background(), cells, seeds, deriveUnit,
		func(cell int, runs []int) {
			order = append(order, cell)
			rows = append(rows, append([]int(nil), runs...))
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range order {
		if cell != i {
			t.Fatalf("reduce order %v: position %d got cell %d", order, i, cell)
		}
	}
	if len(order) != len(cells) {
		t.Fatalf("reduce ran for %d cells, want %d", len(order), len(cells))
	}
	for cell, runs := range rows {
		for rep, r := range runs {
			if r != cell*100+rep {
				t.Errorf("reduce cell %d rep %d = %d, want %d", cell, rep, r, cell*100+rep)
			}
		}
	}
}

func TestMapReplicatesFailedCellSkipsReduce(t *testing.T) {
	t.Parallel()
	cells := repCells(5)
	boom := errors.New("replicate 2 of cell 3 failed")
	e := &Engine[repUnit, int]{
		Run: func(u repUnit) (int, error) {
			if u.Cell == 3 && u.Rep == 2 {
				return 0, boom
			}
			return runUnit(u)
		},
		Parallel: 4,
	}
	var reduced []int
	_, err := e.MapReplicates(context.Background(), cells, 4, deriveUnit,
		func(cell int, _ []int) { reduced = append(reduced, cell) })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	want := []int{0, 1, 2, 4}
	if !reflect.DeepEqual(reduced, want) {
		t.Errorf("reduced cells %v, want %v (failed cell skipped, later cells still reduced)", reduced, want)
	}
}

func TestMapReplicatesErrorIsLowestFlattenedIndex(t *testing.T) {
	t.Parallel()
	cells := repCells(4)
	e := &Engine[repUnit, int]{
		Run: func(u repUnit) (int, error) {
			if u.Rep == 1 {
				return 0, fmt.Errorf("cell %d rep %d", u.Cell, u.Rep)
			}
			return runUnit(u)
		},
		Parallel: 8,
	}
	_, err := e.MapReplicates(context.Background(), cells, 3, deriveUnit, nil)
	if err == nil || err.Error() != "cell 0 rep 1" {
		t.Fatalf("err = %v, want the lowest flattened failure (cell 0 rep 1)", err)
	}
}

func TestMapReplicatesForwardsProgress(t *testing.T) {
	t.Parallel()
	cells := repCells(3)
	var updates atomic.Int64
	e := &Engine[repUnit, int]{
		Run:      runUnit,
		Parallel: 2,
		Progress: func(u Update[repUnit, int]) { updates.Add(1) },
	}
	if _, err := e.MapReplicates(context.Background(), cells, 4, deriveUnit, nil); err != nil {
		t.Fatal(err)
	}
	if got := updates.Load(); got != int64(len(cells)*4) {
		t.Errorf("caller Progress saw %d updates, want %d (one per replicate unit)", got, len(cells)*4)
	}
}

func TestMapReplicatesCanceledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Engine[repUnit, int]{Run: runUnit, Parallel: 2}
	reduces := 0
	_, err := e.MapReplicates(ctx, repCells(4), 3, deriveUnit,
		func(int, []int) { reduces++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reduces != 0 {
		t.Errorf("reduce ran %d times on a pre-canceled sweep, want 0", reduces)
	}
}

func TestMapReplicatesCanceledMidSweep(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := repCells(32)
	e := &Engine[repUnit, int]{Run: runUnit, Parallel: 2}
	var reduced []int
	_, err := e.MapReplicates(ctx, cells, 2, deriveUnit, func(cell int, _ []int) {
		reduced = append(reduced, cell)
		cancel() // cancel from inside the stream, after the first cell
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(reduced) == 0 || len(reduced) >= len(cells) {
		t.Fatalf("reduced %d of %d cells, want a proper non-empty prefix", len(reduced), len(cells))
	}
	for i, cell := range reduced {
		if cell != i {
			t.Fatalf("reduced cells %v: position %d got cell %d, want an in-order prefix from cell 0", reduced, i, cell)
		}
	}
}

func TestMapReplicatesSeedsDefaultToOne(t *testing.T) {
	t.Parallel()
	e := &Engine[repUnit, int]{Run: runUnit, Parallel: 1}
	got, err := e.MapReplicates(context.Background(), repCells(3), 0, deriveUnit, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cell, runs := range got {
		if len(runs) != 1 || runs[0] != cell*100 {
			t.Errorf("cell %d runs = %v, want the single replicate-0 result", cell, runs)
		}
	}
}
