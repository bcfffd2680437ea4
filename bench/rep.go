package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"ec2wfsim/internal/units"
)

// Modes of a repetition process.
const (
	modeRep    = "rep"    // one timed repetition
	modeCheck  = "check"  // one timed repetition, then the check-only work
	modeTraced = "traced" // one repetition under the CPU profiler, then the probes
)

// cacheSamples is the number of resultcache Put and Get calls the probe
// times.
const cacheSamples = 256

// repResult is what one repetition process reports to its run.
type repResult struct {
	SetupS   float64       `json:"setup_s"`
	WallS    float64       `json:"wall_s"`
	PeakRSS  float64       `json:"peak_rss_mb"`
	AllocMB  float64       `json:"alloc_mb"`
	GCCycles float64       `json:"gc_cycles"`
	Digest   string        `json:"digest"`
	Ops      int           `json:"ops"`
	Failed   int           `json:"failed"`
	Notes    []string      `json:"notes,omitempty"`
	PerLayer []namedMetric `json:"per_layer,omitempty"`
}

// repProcess sets the workload up, runs one repetition in the given mode
// and prints its result as the last line.
func repProcess(spec workloadSpec, opt options, root string) int {
	if opt.rep != modeRep && opt.rep != modeCheck && opt.rep != modeTraced {
		fmt.Fprintf(os.Stderr, "bench: unknown repetition mode %q\n", opt.rep)
		return 2
	}
	dir := filepath.Join(opt.out, spec.name)
	scratch := filepath.Join(dir, "scratch")
	defer os.RemoveAll(scratch)
	r, err := runRep(spec, opt, root, dir, scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s %s repetition: %v\n", spec.name, opt.rep, err)
		return 1
	}
	return printLine(r)
}

func runRep(spec workloadSpec, opt options, root, dir, scratch string) (*repResult, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	w, err := spec.make(opt.seed, root, scratch)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &repResult{SetupS: time.Since(t).Seconds()}

	var o output
	if opt.rep == modeTraced {
		tr := &tracer{t0: time.Now()}
		var split []namedMetric
		if split, o, r.WallS, err = tracedRep(w, spec.name, tr, dir); err != nil {
			return nil, err
		}
		probes, err := probeLayers(w, tr, scratch, &o)
		if err != nil {
			return nil, err
		}
		r.PerLayer = append(split, probes...)
		if err := writeJSON(filepath.Join(dir, "spans.json"), tr.spans); err != nil {
			return nil, err
		}
	} else {
		var before, after runtime.MemStats
		var rssErr error
		o = w.rep(func(f func()) {
			runtime.ReadMemStats(&before)
			t := time.Now()
			f()
			r.WallS = time.Since(t).Seconds()
			r.PeakRSS, rssErr = peakRSSMB()
			runtime.ReadMemStats(&after)
		})
		if rssErr != nil {
			return nil, rssErr
		}
		r.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / units.MB
		r.GCCycles = float64(after.NumGC - before.NumGC)
		if opt.rep == modeCheck {
			o.merge(w.finish())
		}
	}
	r.Digest, r.Ops, r.Failed, r.Notes = o.digest(), o.ops, o.failed, o.notes
	return r, nil
}

// tracedRep runs one repetition under the CPU profiler and splits the
// profile's samples by layer.
func tracedRep(w workload, name string, tr *tracer, dir string) (ms []namedMetric, o output, wall float64, err error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, o, 0, err
	}
	defer f.Close()
	var profErr error
	o = w.rep(func(fn func()) {
		id := tr.begin(name, "traced-rep", 0)
		profErr = pprof.StartCPUProfile(f)
		t := time.Now()
		fn()
		wall = time.Since(t).Seconds()
		pprof.StopCPUProfile()
		tr.end(id)
	})
	if err := errors.Join(profErr, f.Close()); err != nil {
		return nil, o, 0, err
	}
	split, err := cpuSplit(path)
	if err != nil {
		return nil, o, 0, err
	}
	var total time.Duration
	for _, d := range split {
		total += d
	}
	for _, l := range layers {
		ms = append(ms, namedMetric{"cpu_s." + l, metric{split[l].Seconds(), "cpu_s"}})
	}
	for _, l := range layers {
		ms = append(ms, namedMetric{"cpu_share." + l, metric{split[l].Seconds() / total.Seconds(), "ratio"}})
	}
	return ms, o, wall, nil
}

// probeLayers runs the probes: every distinct cell through the layers'
// entry points, the result store, and the event log. Each probed cell is
// an op; its row must equal the row the traced repetition, o, produced
// for that cell.
func probeLayers(w workload, tr *tracer, scratch string, o *output) ([]namedMetric, error) {
	var tot probeTotals
	var sample []byte
	for _, cfg := range w.cells() {
		o.ops++
		row, err := probeCell(tr, cfg, &tot)
		if err != nil {
			o.fail(1, "probe %s: %v", label(cfg), err)
			continue
		}
		data, err := json.Marshal(row)
		if err != nil {
			return nil, err
		}
		if want := o.rows[label(cfg)]; !bytes.Equal(data, want) {
			o.fail(1, "probe %s: row %s differs from the workload's %s", label(cfg), data, want)
		}
		if sample == nil {
			sample = data
		}
	}
	if sample == nil || tot.events == 0 {
		return nil, errors.New("no probe cell completed")
	}
	gets, puts, err := cacheProbe(filepath.Join(scratch, "probe-store"), sample, cacheSamples)
	if err != nil {
		return nil, err
	}
	logs, err := logProbe(tr, w.cells()[0])
	if err != nil {
		return nil, err
	}
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	return []namedMetric{
		{"apps.gen_s", metric{tot.genS, "s"}},
		{"cluster.provision_s", metric{tot.provisionS, "s"}},
		{"storage.init_s", metric{tot.initS, "s"}},
		{"wms.run_s", metric{tot.runS, "s"}},
		{"sim.events", metric{float64(tot.events), "count"}},
		{"sim.ns_per_event", metric{tot.runS / float64(tot.events) * 1e9, "ns"}},
		{"sim.makespan_s", metric{tot.makespan, "sim_s"}},
		{"wms.tasks", metric{float64(tot.tasks), "count"}},
		{"wms.stage_in_sim_s", metric{tot.stageIn, "sim_s"}},
		{"storage.reads", metric{float64(tot.reads), "count"}},
		{"storage.writes", metric{float64(tot.writes), "count"}},
		{"storage.network_gb", metric{tot.networkBytes / units.GB, "GB"}},
		{"storage.client_hit_ratio", metric{ratio(tot.clientHits, tot.clientMisses), "ratio"}},
		{"storage.server_hit_ratio", metric{ratio(tot.serverHits, tot.serverMisses), "ratio"}},
		{"resultcache.get_us", metric{median(gets), "us"}},
		{"resultcache.get_us.p95", metric{percentile(gets, 95), "us"}},
		{"resultcache.put_us", metric{median(puts), "us"}},
		{"resultcache.put_us.p95", metric{percentile(puts, 95), "us"}},
		{"eventlog.events", metric{float64(logs.events), "count"}},
		{"eventlog.bytes", metric{float64(logs.bytes), "B"}},
		{"eventlog.decode_s", metric{logs.decodeS, "s"}},
		{"eventlog.record_overhead_s", metric{logs.overhead, "s"}},
	}, nil
}
