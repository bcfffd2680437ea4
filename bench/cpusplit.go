package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layers are the CPU-split buckets, in report order. Every sample of the
// traced repetition lands in exactly one.
var layers = []string{
	"sim", "sim.handoff", "runtime.sched", "runtime.gc",
	"flow", "storage", "wms", "apps", "eventlog", "harness", "sweep", "resultcache",
}

// layerOf maps a module package (the path element after
// ec2wfsim/internal/) to its layer. Packages not listed — rng, units,
// outage, wfprof, report and the like — name no layer: their samples go
// to the nearest listed caller.
var layerOf = map[string]string{
	"sim":         "sim",
	"flow":        "flow",
	"storage":     "storage",
	"disk":        "storage",
	"cluster":     "storage",
	"wms":         "wms",
	"apps":        "apps",
	"workflow":    "apps",
	"eventlog":    "eventlog",
	"harness":     "harness",
	"scenario":    "harness",
	"cost":        "harness",
	"sweep":       "sweep",
	"resultcache": "resultcache",
}

// frameLayer returns the layer of a module frame, or "" for any other
// frame.
func frameLayer(frame string) string {
	rest, ok := strings.CutPrefix(frame, "ec2wfsim/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return layerOf[rest]
}

// isRuntimeFrame reports whether a frame belongs to the Go runtime,
// including its assembly routines, which carry no package qualifier.
func isRuntimeFrame(frame string) bool {
	return strings.HasPrefix(frame, "runtime.") ||
		strings.HasPrefix(frame, "internal/runtime/") ||
		!strings.Contains(frame, ".")
}

// isGCFrame reports whether a frame is a GC worker, sweeper or scavenger.
func isGCFrame(frame string) bool {
	return strings.HasPrefix(frame, "runtime.gc") ||
		strings.HasPrefix(frame, "runtime.bgsweep") ||
		strings.HasPrefix(frame, "runtime.bgscavenge")
}

// bucket assigns one sample's stack, leaf first, to a layer: the first
// module frame from the leaf names it, so a layer owns its self time and
// the runtime helpers it calls. A runtime leaf under sim is the
// engine/process handoff; a stack with no module frame is GC work or
// scheduler time.
func bucket(stack []string) string {
	for _, f := range stack {
		if l := frameLayer(f); l != "" {
			if l == "sim" && isRuntimeFrame(stack[0]) {
				return "sim.handoff"
			}
			return l
		}
	}
	for _, f := range stack {
		if isGCFrame(f) {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// parseTraces reads `go tool pprof -traces` output and returns the CPU
// time of each layer. Blocks are separated by a rule line; a block's first
// line holds the sample value and the leaf frame, and each following line
// one caller.
func parseTraces(text string) (map[string]time.Duration, error) {
	split := make(map[string]time.Duration, len(layers))
	var stack []string
	var value time.Duration
	flush := func() {
		if len(stack) > 0 {
			split[bucket(stack)] += value
		}
		stack = stack[:0]
	}
	inBlocks := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		trimmed := strings.TrimSpace(line)
		if !inBlocks || trimmed == "" {
			continue
		}
		if len(stack) == 0 {
			v, frame, ok := strings.Cut(trimmed, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: sample line %q has no frame", line)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value: %w", err)
			}
			value = d
			trimmed = strings.TrimSpace(frame)
		}
		stack = append(stack, strings.TrimSuffix(trimmed, " (inline)"))
	}
	flush()
	if !inBlocks {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return split, nil
}

// cpuSplit runs `go tool pprof -traces` on a CPU profile and buckets its
// samples by layer.
func cpuSplit(profile string) (map[string]time.Duration, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(errOut.String()))
	}
	return parseTraces(out.String())
}
