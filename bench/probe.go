package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ec2wfsim/internal/apps"
	"ec2wfsim/internal/cluster"
	"ec2wfsim/internal/cost"
	"ec2wfsim/internal/eventlog"
	"ec2wfsim/internal/flow"
	"ec2wfsim/internal/harness"
	"ec2wfsim/internal/resultcache"
	"ec2wfsim/internal/rng"
	"ec2wfsim/internal/sim"
	"ec2wfsim/internal/storage"
	"ec2wfsim/internal/wms"
	"ec2wfsim/internal/workflow"
)

// span is one timed call into a layer. The benchmark records spans around
// the calls it makes; the program itself is not instrumented.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Trace  string  `json:"trace"`  // the cell or workload the span serves
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the benchmark writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(trace, name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: time.Since(t.t0).Seconds(),
	})
	return len(t.spans)
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	return s.End - s.Start
}

// timed runs f inside a span and returns its duration in seconds.
func (t *tracer) timed(trace, name string, parent int, f func()) float64 {
	id := t.begin(trace, name, parent)
	f()
	return t.end(id)
}

// probeTotals sums the probe measurements over a workload's cells.
type probeTotals struct {
	genS, provisionS, initS, runS float64
	events, tasks, reads, writes  int64
	networkBytes                  float64
	clientHits, clientMisses      int64
	serverHits, serverMisses      int64
	makespan, stageIn             float64
}

// probeCell runs one cell through the layers' exported entry points, in
// the order harness.Run calls them, with a span around each call. It
// returns the cell's row, which must equal the row harness.Run produces.
func probeCell(tr *tracer, cfg harness.RunConfig, tot *probeTotals) (harness.ResultJSON, error) {
	id := label(cfg)
	root := tr.begin(id, "cell", 0)
	defer tr.end(root)

	var w *workflow.Workflow
	var err error
	tot.genS += tr.timed(id, "apps.gen", root, func() { w, err = apps.PaperScaleSeeded(cfg.App, cfg.AppSeed) })
	if err != nil {
		return harness.ResultJSON{}, err
	}
	sys, err := storage.ByName(cfg.Storage)
	if err != nil {
		return harness.ResultJSON{}, err
	}
	workerType, err := cluster.TypeByName(cfg.WorkerType)
	if err != nil {
		return harness.ResultJSON{}, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = harness.DefaultSeed
	}
	e := sim.NewEngine()
	net := flow.NewNet(e)
	var c *cluster.Cluster
	tot.provisionS += tr.timed(id, "cluster.provision", root, func() {
		c, err = cluster.New(e, net, rng.New(seed), cluster.Config{
			Workers: cfg.Workers, WorkerType: workerType, Extra: sys.ExtraNodeTypes(),
		})
	})
	if err != nil {
		return harness.ResultJSON{}, err
	}
	tot.initS += tr.timed(id, "storage.init", root, func() {
		err = sys.Init(&storage.Env{E: e, Net: net, Workers: c.Workers, Extra: c.Extra, R: rng.New(seed + 1)})
	})
	if err != nil {
		return harness.ResultJSON{}, err
	}
	var res *wms.Result
	tot.runS += tr.timed(id, "wms.run", root, func() { res, err = wms.Run(e, wms.Options{Cluster: c, Storage: sys}, w) })
	if err != nil {
		return harness.ResultJSON{}, err
	}
	if done := res.Completed(); done != len(w.Tasks) {
		return harness.ResultJSON{}, fmt.Errorf("%s: %d of %d tasks completed", id, done, len(w.Tasks))
	}
	st := sys.Stats()
	var r harness.RunResult
	tr.timed(id, "cost.compute", root, func() {
		r = harness.RunResult{
			Config: cfg, Makespan: res.Makespan, ProvisionTime: c.ProvisionTime,
			Utilization: res.Utilization(c), MemoryWaits: res.MemoryWaits, Stats: st,
			CostHour:   cost.Compute(c, res.Makespan, st, cost.PerHour),
			CostSecond: cost.Compute(c, res.Makespan, st, cost.PerSecond),
		}
	})

	tot.events += e.Scheduled()
	tot.tasks += int64(len(w.Tasks))
	tot.reads += st.Reads
	tot.writes += st.Writes
	tot.networkBytes += st.NetworkBytes
	tot.clientHits += st.CacheHits
	tot.clientMisses += st.CacheMisses
	tot.serverHits += st.ServerCacheHits
	tot.serverMisses += st.ServerCacheMisses
	tot.makespan += res.Makespan
	for _, s := range res.Spans {
		tot.stageIn += s.Exec - s.Start
	}
	return r.JSONRow(), nil
}

// cacheProbe times n resultcache.Put calls on fresh keys in a scratch
// store under dir, then a Get of each, and returns the per-call times in
// microseconds. The store is removed afterwards.
func cacheProbe(dir string, row []byte, n int) (gets, puts []float64, err error) {
	defer os.RemoveAll(dir)
	store, err := resultcache.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	micros := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
	keys := make([]resultcache.Key, n)
	for i := range keys {
		keys[i] = resultcache.Key{Cell: "probe", Seed: uint64(i + 1)}
	}
	for _, k := range keys {
		t := time.Now()
		if err := store.Put(k, row); err != nil {
			return nil, nil, err
		}
		puts = append(puts, micros(t))
	}
	for _, k := range keys {
		t := time.Now()
		got, err := store.Get(k)
		if err != nil {
			return nil, nil, err
		}
		gets = append(gets, micros(t))
		if !bytes.Equal(got, row) {
			return nil, nil, fmt.Errorf("resultcache: entry %d read back different bytes", k.Seed)
		}
	}
	return gets, puts, nil
}

// logStats is what the event-log probe measures.
type logStats struct {
	events, bytes     int
	decodeS, overhead float64
}

// logProbe records one cell's event log, decodes it, and times an
// unrecorded run of the same cell: the difference between the recorded
// and the unrecorded run is the recording overhead.
func logProbe(tr *tracer, cfg harness.RunConfig) (logStats, error) {
	id := label(cfg) + "/eventlog"
	var buf bytes.Buffer
	var err error
	recS := tr.timed(id, "harness.RunRecorded", 0, func() { _, err = harness.RunRecorded(cfg, &buf) })
	if err != nil {
		return logStats{}, err
	}
	runS := tr.timed(id, "harness.Run", 0, func() { _, err = harness.Run(cfg) })
	if err != nil {
		return logStats{}, err
	}
	var events []eventlog.Event
	decodeS := tr.timed(id, "eventlog.Decode", 0, func() { _, events, _, err = eventlog.Decode(buf.Bytes()) })
	if err != nil {
		return logStats{}, err
	}
	return logStats{events: len(events), bytes: buf.Len(), decodeS: decodeS, overhead: recS - runS}, nil
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
