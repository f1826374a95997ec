package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/rng"
	"sage/internal/scenario"
)

// inputsOf renders every workload's generated input for one seed.
func inputsOf(t *testing.T, seed uint64, small bool) map[string]string {
	t.Helper()
	enc := func(r *apiv1.Roster) string {
		if err := scenario.Validate(r); err != nil {
			t.Fatalf("seed %d: roster %s invalid: %v", seed, r.Name, err)
		}
		var b bytes.Buffer
		if err := apiv1.EncodeRoster(&b, r); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	st := genStream(seed, small)
	if len(st.sources) != st.sites-st.regions {
		t.Fatalf("seed %d: %d stream sources, want every non-hub site (%d)", seed, len(st.sources), st.sites-st.regions)
	}
	for _, s := range st.sources {
		if s.rate <= 0 || s.keys <= 0 || s.skew <= 1 {
			t.Fatalf("seed %d: invalid stream source %+v", seed, s)
		}
	}
	ga := genGather(seed, small)
	for i, f := range ga.rounds {
		if f <= 0 {
			t.Fatalf("seed %d: round %d gathers %d files", seed, i, f)
		}
	}
	rc := genRecover(seed, small)
	if len(rc.roster.Injections) != 2*rc.kills {
		t.Fatalf("seed %d: %d injections for %d kills", seed, len(rc.roster.Injections), rc.kills)
	}
	tn := genTenant(seed, small)
	return map[string]string{
		"geo-stream":        fmt.Sprintf("%+v", st.sources),
		"geo-gather":        enc(ga.roster) + fmt.Sprint(ga.rounds),
		"recover":           enc(rc.roster) + enc(rc.twin),
		"saged-multitenant": enc(tn.roster),
	}
}

func TestSeedsGiveValidDistinctInputs(t *testing.T) {
	for _, small := range []bool{false, true} {
		a, b := inputsOf(t, 1, small), inputsOf(t, 2, small)
		again := inputsOf(t, 1, small)
		for _, name := range workloadNames() {
			if a[name] == b[name] {
				t.Errorf("%s (small=%v): seeds 1 and 2 generate the same input", name, small)
			}
			if a[name] != again[name] {
				t.Errorf("%s (small=%v): seed 1 generates different inputs on two calls", name, small)
			}
		}
	}
}

// TestChecksPassOnSecondSeed runs every workload, reduced in size, on a
// seed other than the default, through an untraced and a traced phase of
// minIterations iterations each, and requires every output check to pass
// and every iteration to report its own set-ups and peak RSS.
func TestChecksPassOnSecondSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 2, small: true}
			chk := &checker{}
			inst, err := w.prepare(o)
			if err != nil {
				t.Fatal(err)
			}
			var first outcome
			for i, spans := range []*spanLog{nil, newSpanLog()} {
				// The traced phase sets up once per iteration; the untraced
				// one adds the extra set-ups setup_s is taken over.
				o.trace = spans != nil
				its, layers, err := iterate(o, inst, chk, phase{spans: spans, inProcess: true, limit: maxPhase})
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range its {
					wrongSetups := o.trace && len(it.setups) != 1 || !o.trace && len(it.setups) < setupsPerIteration
					if wrongSetups || it.run <= 0 || len(it.calls) == 0 || !(it.rssMiB > 0) {
						t.Fatalf("phase %d: %d set-ups, run %v, %d timed calls, peak RSS %v MiB",
							i, len(it.setups), it.run, len(it.calls), it.rssMiB)
					}
					for _, d := range it.setups {
						if d <= 0 {
							t.Fatalf("phase %d: set-up took %v", i, d)
						}
					}
				}
				if i == 0 {
					first = its[0].out
				} else if its[0].out != first {
					t.Fatalf("traced iteration decided %+v, untraced %+v", its[0].out, first)
				}
				if spans != nil && len(layers) == 0 {
					t.Fatal("traced iteration reported no layer counters")
				}
			}
			if chk.attempted == 0 || chk.failed != 0 {
				t.Fatalf("%d of %d checks failed: %v", chk.failed, chk.attempted, chk.errs)
			}
			for _, v := range []float64{first.costUSD, first.windowP95, first.makespan, first.completionP95} {
				if !(v > 0) {
					t.Fatalf("outcome has a non-positive figure: %+v", first)
				}
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"sage/internal/core.(*Engine).stageWindow":          "core",
		"sage/internal/core.(*Engine).Start.func1":          "core",
		"sage/api/v1.DecodeRoster":                          "apiv1",
		"sage/internal/obs.find[go.shape.struct { a/b.c }]": "obs",
		"runtime.mallocgc":                                  "",
		"net/http.(*conn).serve":                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUByLayerAttributesProfile profiles work done inside one SAGE
// package and checks cpuByLayer charges it there.
func TestCPUByLayerAttributesProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	r := rng.New(1)
	sink := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for range 1000 {
			sink += r.Normal(0, 1)
		}
	}
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, err := cpuByLayer(path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	if total == 0 || float64(cpu["rng"]) < 0.5*float64(total) {
		t.Fatalf("rng got %d of %d sampled ns (sink %v): %v", cpu["rng"], total, sink, cpu)
	}
}

func TestTracesByLayer(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             sage/internal/stream.(*KeyedAgg).Add (inline)
             sage/internal/core.(*Engine).stageWindow
-----------+-------------------------------------------------------
      1.02s  runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   sage/internal/obs.find[go.shape.struct { a/b.c }]
-----------+-------------------------------------------------------
`
	got, err := tracesByLayer(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"stream": 10e6, otherLayer: 1020e6, "obs": 20e6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tracesByLayer = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.95: 4.8, 1: 5} {
		if got := quantile(vals, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no values is not NaN")
	}
}

func TestNetOfSteal(t *testing.T) {
	start := cpuTicks{busy: 1000, steal: 50}
	share := cpuTicks{busy: 1300, steal: 150}.stealShare(start)
	if math.Abs(share-0.25) > 1e-12 {
		t.Fatalf("steal share = %v, want 0.25", share)
	}
	it := iteration{setup: 4 * time.Second, run: 8 * time.Second,
		calls: []time.Duration{400 * time.Millisecond, failedLatency}, steal: share}
	it.netOfSteal()
	if it.setup != 3*time.Second || it.run != 6*time.Second || it.calls[0] != 300*time.Millisecond {
		t.Fatalf("net of 25%% steal: setup %v run %v call %v", it.setup, it.run, it.calls[0])
	}
	if it.calls[1] != failedLatency {
		t.Fatal("a failed request's latency was scaled")
	}
	if _, err := readCPUTicks(); err != nil {
		t.Fatal(err)
	}
}
