package main

import (
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// This file attributes the traced run's CPU time to SAGE's layers. It reads
// the CPU profile through the toolchain's `go tool pprof -traces`, which
// lists every sampled stack innermost frame first, and charges each sample
// to the package of its innermost sage/... frame: standard-library frames
// are charged to the layer that called them, and samples with no sage/...
// frame at all (GC workers, the benchmark's own HTTP client) go to
// "runtime.other".

// otherLayer collects samples without any sage/... frame.
const otherLayer = "runtime.other"

// layerNames are the layers the benchmark reports, named by module
// package. Any other sage/... package still gets its own row in the table.
var layerNames = []string{
	"workload", "rng", "stream", "resilience", "netsim", "transfer", "route",
	"monitor", "model", "cloud", "simtime", "core", "sched", "daemon", "obs",
	"apiv1", "scenario", "stats", "trace",
}

// layerOf maps a profiled function name to its layer, "" for a frame
// outside the sage module. "sage/internal/core.(*Engine).Start.func1" is
// core; "sage/api/v1.DecodeRoster" is apiv1.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, "sage/") {
		return ""
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may carry paths in brackets
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "sage/api/v1" {
		return "apiv1"
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// cpuByLayer reads the CPU profile at path and returns CPU nanoseconds per
// layer.
func cpuByLayer(path string) (map[string]int64, error) {
	text, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return tracesByLayer(string(text))
}

// tracesByLayer sums `go tool pprof -traces` output by layer. After a header,
// each sample is a separator line, then its value and innermost frame on one
// line, then one line per calling frame.
func tracesByLayer(text string) (map[string]int64, error) {
	out := make(map[string]int64)
	var value time.Duration
	layer, inSample, header := "", false, true
	flush := func() {
		if inSample {
			if layer == "" {
				layer = otherLayer
			}
			out[layer] += int64(value)
		}
		layer, inSample = "", false
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			header = false
			continue
		}
		f := strings.Fields(line)
		if header || len(f) == 0 {
			continue
		}
		if !inSample {
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value in %q: %w", line, err)
			}
			value, inSample, f = d, true, f[1:]
		}
		if layer == "" && len(f) > 0 {
			layer = layerOf(f[0])
		}
	}
	flush()
	return out, nil
}

// layerRow is one line of the layer table.
type layerRow struct {
	layer string
	cpuNs int64
}

// sortedLayers orders layers by CPU time, largest first.
func sortedLayers(cpu map[string]int64) []layerRow {
	rows := make([]layerRow, 0, len(cpu))
	for l, ns := range cpu {
		rows = append(rows, layerRow{l, ns})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cpuNs != rows[j].cpuNs {
			return rows[i].cpuNs > rows[j].cpuNs
		}
		return rows[i].layer < rows[j].layer
	})
	return rows
}

// layerEffects records, before any measurement, which end-to-end metric a
// change in each layer should move and on which workload.
var layerEffects = []struct{ layers, moves string }{
	{"workload, rng, stream", "run_s on geo-stream; api_p95_ms on saged-multitenant; nothing on geo-gather"},
	{"stream (map path), resilience", "run_s and rss_peak_mib on recover; nothing on geo-stream or geo-gather"},
	{"netsim", "run_s on geo-gather"},
	{"transfer", "run_s on geo-gather; a behaviour change also moves makespan_vs and cost_usd"},
	{"route", "run_s on geo-gather and saged-multitenant"},
	{"monitor, model, cloud", "setup_s on every workload; run_s slightly"},
	{"simtime, core", "run_s everywhere; api_p95_ms through quantum length"},
	{"sched", "job_completion_p95_vs and makespan_vs on saged-multitenant"},
	{"daemon, obs, apiv1", "api_p50_ms on saged-multitenant; nothing elsewhere (obs is off in batch runs)"},
}
