package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

// square is a deterministic runner for engine tests.
func square(x int) (int, error) { return x * x, nil }

func TestMapReturnsResultsInInputOrder(t *testing.T) {
	t.Parallel()
	cfgs := make([]int, 100)
	for i := range cfgs {
		cfgs[i] = i
	}
	for _, parallel := range []int{1, 4, 16} {
		e := &Engine[int, int]{Run: square, Parallel: parallel}
		got, err := e.Map(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", parallel, i, r, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	cfgs := []int{7, 3, 3, 9, 1, 7, 0, 12}
	run := func(p int) []int {
		e := &Engine[int, int]{Run: square, Parallel: p}
		got, err := e.Map(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := run(1)
	concurrent := run(8)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Errorf("parallel 1 vs 8 differ: %v vs %v", serial, concurrent)
	}
}

func TestMemoRunsEachKeyOnce(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	e := &Engine[int, int]{
		Run: func(x int) (int, error) {
			calls.Add(1)
			return x * x, nil
		},
		Key:      func(x int) string { return fmt.Sprint(x) },
		Memo:     NewMemo[int](),
		Parallel: 8,
	}
	cfgs := []int{5, 5, 5, 2, 2, 5, 2, 9}
	got, err := e.Map(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range cfgs {
		if got[i] != x*x {
			t.Errorf("result[%d] = %d, want %d", i, got[i], x*x)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("runner called %d times for 3 distinct keys", n)
	}
	// A second Map over the same memo runs nothing new.
	if _, err := e.Map([]int{5, 9}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("runner re-ran cached keys: %d calls", n)
	}
	if e.Memo.Len() != 3 {
		t.Errorf("memo has %d keys, want 3", e.Memo.Len())
	}
}

func TestEmptyKeyDisablesMemo(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	e := &Engine[int, int]{
		Run: func(x int) (int, error) {
			calls.Add(1)
			return x, nil
		},
		Key:  func(int) string { return "" },
		Memo: NewMemo[int](),
	}
	if _, err := e.Map([]int{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("empty key should bypass the memo; got %d calls, want 3", n)
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	t.Parallel()
	boom := func(i int) error { return fmt.Errorf("cell %d failed", i) }
	e := &Engine[int, int]{
		Run: func(x int) (int, error) {
			if x%2 == 1 {
				return 0, boom(x)
			}
			return x, nil
		},
		Parallel: 8,
	}
	cfgs := []int{0, 2, 5, 4, 3, 7}
	_, err := e.Map(cfgs)
	if err == nil || err.Error() != "cell 5 failed" {
		t.Errorf("err = %v, want the lowest-index failure (cell 5)", err)
	}
}

func TestMemoCachesErrors(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	m := NewMemo[int]()
	fail := func() (int, error) {
		calls.Add(1)
		return 0, errors.New("nope")
	}
	if _, err, cached := m.Do("k", fail); err == nil || cached {
		t.Fatalf("first Do: err=%v cached=%v", err, cached)
	}
	if _, err, cached := m.Do("k", fail); err == nil || !cached {
		t.Fatalf("second Do: err=%v cached=%v", err, cached)
	}
	if calls.Load() != 1 {
		t.Errorf("failing fn ran %d times, want 1", calls.Load())
	}
}

func TestProgressCountsEveryCell(t *testing.T) {
	t.Parallel()
	var seen []Update[int, int]
	e := &Engine[int, int]{
		Run:      square,
		Parallel: 4,
		Progress: func(u Update[int, int]) { seen = append(seen, u) },
	}
	cfgs := []int{1, 2, 3, 4, 5}
	if _, err := e.Map(cfgs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("progress fired %d times, want %d", len(seen), len(cfgs))
	}
	for i, u := range seen {
		if u.Done != i+1 || u.Total != len(cfgs) {
			t.Errorf("update %d: Done=%d Total=%d", i, u.Done, u.Total)
		}
		if u.Result != u.Config*u.Config {
			t.Errorf("update %d: result %d for config %d", i, u.Result, u.Config)
		}
	}
}

func TestMapCtxCanceledUpFront(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallel := range []int{1, 4} {
		var calls atomic.Int64
		e := &Engine[int, int]{
			Run: func(x int) (int, error) {
				calls.Add(1)
				return x, nil
			},
			Parallel: parallel,
		}
		_, err := e.MapCtx(ctx, make([]int, 64))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%d: err = %v, want context.Canceled", parallel, err)
		}
		// A free worker can still receive a cell from the feeder's
		// select; it must not start it.
		if n := calls.Load(); n != 0 {
			t.Errorf("parallel=%d: canceled sweep still ran %d cells", parallel, n)
		}
	}
}

func TestMapCtxStopsDispatchingMidSweep(t *testing.T) {
	t.Parallel()
	for _, parallel := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		var progressed atomic.Int64
		e := &Engine[int, int]{
			Run: func(x int) (int, error) {
				if calls.Add(1) == 2 {
					// Cancel from inside the sweep: everything not yet
					// dispatched must be skipped.
					cancel()
				}
				return x * x, nil
			},
			Parallel: parallel,
			Progress: func(u Update[int, int]) { progressed.Add(1) },
		}
		cfgs := make([]int, 64)
		for i := range cfgs {
			cfgs[i] = i
		}
		results, err := e.MapCtx(ctx, cfgs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%d: err = %v, want context.Canceled", parallel, err)
		}
		ran := calls.Load()
		if ran >= int64(len(cfgs)) {
			t.Errorf("parallel=%d: cancellation did not stop dispatch (%d cells ran)", parallel, ran)
		}
		if parallel == 1 && ran != 2 {
			// One worker runs cells one at a time, so nothing may start
			// after the cell that canceled.
			t.Errorf("parallel=1: %d cells ran, want exactly 2", ran)
		}
		if progressed.Load() != ran {
			t.Errorf("parallel=%d: %d progress updates for %d completed cells", parallel, progressed.Load(), ran)
		}
		// Completed cells still returned their results.
		if results[0] != 0 && results[1] != 1 && parallel == 1 {
			t.Errorf("parallel=1: early results lost: %v", results[:2])
		}
		cancel()
	}
}

func TestSummarize(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Stddev-want) > 1e-12 {
		t.Errorf("stddev = %g, want %g", s.Stddev, want)
	}
	if one := Summarize([]float64{3}); one.Stddev != 0 || one.Mean != 3 {
		t.Errorf("single sample: %+v", one)
	}
	if zero := Summarize(nil); zero.N != 0 || zero.Min != 0 || zero.Max != 0 {
		t.Errorf("empty: %+v", zero)
	}
}
