package outage

import (
	"testing"
)

// Windows returns every window of one node's stream that starts before
// horizon. It is the pure-function view of the stream, used by tests and
// fuzzing to check the no-overlap and determinism invariants.
func (s *Schedule) Windows(index int, horizon float64) []Window {
	if s.cfg.Rate <= 0 {
		return nil
	}
	st := s.Node(index)
	var out []Window
	for {
		w := st.Next()
		if w.Start >= horizon {
			return out
		}
		out = append(out, w)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Rate: 2, Duration: 120, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		a := s.Windows(node, 100000)
		b := s.Windows(node, 100000)
		if len(a) == 0 {
			t.Fatalf("node %d: no windows at rate 2/h over ~28h", node)
		}
		if len(a) != len(b) {
			t.Fatalf("node %d: %d vs %d windows on re-generation", node, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d window %d differs: %+v vs %+v", node, i, a[i], b[i])
			}
		}
	}
}

func TestWindowsNonOverlapping(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Rate: 60, Duration: 300, Seed: 7}) // brutal: 1/min, 5 min long
	if err != nil {
		t.Fatal(err)
	}
	ws := s.Windows(0, 50000)
	if len(ws) < 10 {
		t.Fatalf("expected many windows, got %d", len(ws))
	}
	prevEnd := 0.0
	for i, w := range ws {
		if w.Start <= prevEnd && i > 0 {
			t.Fatalf("window %d starts at %g, before previous end %g", i, w.Start, prevEnd)
		}
		if w.End <= w.Start {
			t.Fatalf("window %d is empty or inverted: %+v", i, w)
		}
		prevEnd = w.End
	}
}

func TestNodesDecorrelated(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Rate: 2, Duration: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Windows(0, 100000), s.Windows(1, 100000)
	if len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		t.Errorf("nodes 0 and 1 share their first window %+v", a[0])
	}
}

func TestZeroRateYieldsNothing(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Rate: 0, Duration: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ws := s.Windows(0, 1e9); ws != nil {
		t.Errorf("zero-rate schedule produced windows: %v", ws)
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(Config{Rate: 1, Duration: 0}); err == nil {
		t.Error("positive rate with zero duration accepted")
	}
	if _, err := New(Config{Rate: -1, Duration: 60}); err == nil {
		t.Error("negative rate accepted")
	}
}

// FuzzOutageSchedule is the CI fuzz target for the schedule generator:
// for arbitrary configs and node indices, windows must be strictly
// ordered, non-overlapping, non-empty, and bit-identical across
// re-generation from the same seed.
func FuzzOutageSchedule(f *testing.F) {
	f.Add(uint64(1), uint16(10), uint16(120), uint8(0))
	f.Add(uint64(42), uint16(600), uint16(30), uint8(3))
	f.Add(uint64(0xDEAD), uint16(1), uint16(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, rateRaw, durRaw uint16, node uint8) {
		rate := float64(rateRaw%1000) + 0.1 // outages per node-hour
		dur := float64(durRaw%3600) + 0.1   // seconds
		s, err := New(Config{Rate: rate, Duration: dur, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		idx := int(node % 32)
		a := s.Windows(idx, 20000)
		b := s.Windows(idx, 20000)
		if len(a) != len(b) {
			t.Fatalf("non-deterministic window count: %d vs %d", len(a), len(b))
		}
		prevEnd := -1.0
		for i, w := range a {
			if w != b[i] {
				t.Fatalf("window %d differs across generations: %+v vs %+v", i, w, b[i])
			}
			if w.End <= w.Start {
				t.Fatalf("window %d empty or inverted: %+v", i, w)
			}
			if w.Start <= prevEnd {
				t.Fatalf("window %d overlaps previous (start %g <= prev end %g)", i, w.Start, prevEnd)
			}
			prevEnd = w.End
		}
	})
}
