// Package outage generates deterministic node-outage schedules for
// correlated failure injection: whole nodes dropping offline mid-run
// (spot reclamation, hardware retirement, host maintenance), as opposed
// to the i.i.d. per-task failures the workflow engine also supports.
//
// A Schedule is a pure function of its Config: for every node index it
// yields the same strictly-ordered, non-overlapping sequence of outage
// windows on every run, at any sweep parallelism. Inter-outage gaps are
// exponentially distributed around the configured rate (a Poisson
// reclamation process, the standard model for spot interruptions) and
// outage durations are uniform in [0.5, 1.5] x Duration, so repeated
// outages of one node never collide.
package outage

import (
	"fmt"
	"math"

	"ec2wfsim/internal/rng"
)

// perNodeSeedStride decorrelates the per-node RNG streams: consecutive
// node indices land far apart in seed space (the splitmix64 increment).
const perNodeSeedStride uint64 = 0x9e3779b97f4a7c15

// Config parameterizes a schedule.
type Config struct {
	// Rate is the expected number of outages per node per hour. Zero or
	// negative disables outages (streams yield no windows).
	Rate float64
	// Duration is the mean outage length in seconds. Actual durations are
	// uniform in [0.5, 1.5] x Duration. Must be positive when Rate > 0.
	Duration float64
	// Seed drives the schedule; the same seed reproduces the same windows.
	Seed uint64
}

// Window is one outage: the node is offline in [Start, End).
type Window struct {
	Start float64
	End   float64
}

// Duration returns the window's length in seconds. Event-log
// outage-begin records carry it so reports can show scheduled outage
// lengths without pairing begin/end events first.
func (w Window) Duration() float64 { return w.End - w.Start }

// Schedule derives per-node outage streams from one Config.
type Schedule struct {
	cfg Config
}

// New validates the config and returns a schedule.
func New(cfg Config) (*Schedule, error) {
	if cfg.Rate > 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("outage: rate %g needs a positive duration, got %g", cfg.Rate, cfg.Duration)
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("outage: negative rate %g", cfg.Rate)
	}
	return &Schedule{cfg: cfg}, nil
}

// Config returns the schedule's configuration.
func (s *Schedule) Config() Config { return s.cfg }

// Node returns the outage stream for the node at the given index. Streams
// for the same (Config, index) are identical; streams for different
// indices are decorrelated.
func (s *Schedule) Node(index int) *Stream {
	return &Stream{
		cfg: s.cfg,
		r:   rng.New(s.cfg.Seed + perNodeSeedStride*uint64(index+1)),
	}
}

// Stream yields one node's outage windows in increasing order.
type Stream struct {
	cfg Config
	r   *rng.RNG
	at  float64 // end of the previous window
}

// Next returns the node's next outage window. Windows are strictly
// increasing and never overlap: each starts after the previous one ends.
// It panics when the schedule's rate is zero (callers gate on Rate > 0).
func (st *Stream) Next() Window {
	if st.cfg.Rate <= 0 {
		panic("outage: Next on a zero-rate stream")
	}
	meanGap := 3600.0 / st.cfg.Rate
	// Exponential inter-arrival; 1-u is in (0, 1] so the log is finite,
	// and the epsilon floor keeps windows strictly ordered even for
	// astronomically unlucky draws.
	gap := -meanGap * math.Log(1-st.r.Float64())
	if gap < 1e-9 {
		gap = 1e-9
	}
	dur := st.cfg.Duration * (0.5 + st.r.Float64())
	w := Window{Start: st.at + gap, End: st.at + gap + dur}
	st.at = w.End
	return w
}
