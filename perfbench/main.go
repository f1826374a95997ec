// Command perfbench is SAGE's end-to-end benchmark. It generates every input
// from a seed, drives the system through its public entry points
// (cloud.GenerateWorld, scenario.BuildEngine, core.Engine.Start/Gather,
// Sched.RunFor, and saged over HTTP), checks the outputs, and reports
// end-to-end metrics, or with -trace 1 a per-layer breakdown of a separate
// traced run. Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload geo-stream --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	small    bool // reduced input sizes, for the benchmark's own tests
	saged    string
	out      string
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of SAGE sees, reported with -trace 0. Every
// workload reports all of them; see workloads.go for what each means where
// the workload has no daemon or no windows. The API latencies (api_p50_ms,
// api_p95_ms) are per-layer figures instead: even net of hypervisor steal
// their ten-seed spread on a shared 2-vCPU host reached a quarter, the
// widest bound a gate may have; every run still checks api p95 against
// apiP95Limit.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"rss_peak_mib", "MiB"},
	{"cost_usd", "USD"},
	{"window_latency_p95_vs", "virtual_s"},
	{"makespan_vs", "virtual_s"},
	{"job_completion_p95_vs", "virtual_s"},
}

// perLayer are the traced run's metrics, reported with -trace 1.
var perLayer = []metricDef{
	{"workload.self_s", "s"}, {"workload.events", "count"}, {"rng.self_s", "s"},
	{"stream.self_s", "s"},
	{"resilience.self_s", "s"}, {"resilience.checkpoints", "count"},
	{"resilience.checkpoint_mib", "MiB"}, {"resilience.recoveries", "count"},
	{"resilience.dup_mib", "MiB"},
	{"netsim.self_s", "s"}, {"netsim.egress_mib", "MiB"},
	{"transfer.self_s", "s"}, {"transfer.started", "count"},
	{"transfer.chunk_acks", "count"}, {"transfer.retransmits", "count"},
	{"transfer.useful_ratio", "ratio"},
	{"route.self_s", "s"}, {"route.replans", "count"},
	{"route.full_recomputes", "count"}, {"route.cache_hit_ratio", "ratio"},
	{"monitor.self_s", "s"}, {"monitor.probes", "count"},
	{"model.self_s", "s"}, {"cloud.self_s", "s"},
	{"simtime.self_s", "s"}, {"simtime.events", "count"},
	{"core.self_s", "s"}, {"core.windows", "count"}, {"core.partials", "count"},
	{"core.window_wall_ms_max", "ms"},
	{"sched.self_s", "s"}, {"sched.wait_p95_vs", "virtual_s"}, {"sched.preempts", "count"},
	{"daemon.self_s", "s"},
	{"daemon.http.jobs_list.p95_ms", "ms"}, {"daemon.http.job_get.p95_ms", "ms"},
	{"daemon.http.metrics.p95_ms", "ms"}, {"daemon.http.report.p95_ms", "ms"},
	{"daemon.http.clock_post.p95_ms", "ms"},
	{"obs.self_s", "s"}, {"obs.scrape_kib", "KiB"}, {"apiv1.self_s", "s"},
	{"scenario.self_s", "s"}, {"stats.self_s", "s"}, {"trace.self_s", "s"},
	{"runtime.other_s", "s"},
	{"proc.cpu_s", "s"}, {"proc.alloc_mib", "MiB"},
	{"bench.gen_lag_ms", "ms"}, {"bench.trace_overhead_ratio", "ratio"},
	{"bench.steal_share", "ratio"},
	{"api_p50_ms", "ms"}, {"api_p95_ms", "ms"},
}

// Bounds on one run: at least minIterations iterations whatever --seconds
// says, no new iteration once a measuring phase has run for maxPhase (half
// that for each phase of a traced run), and no iteration waiting longer than
// maxWait for the system under test, so every run exits well inside the
// three minutes a run may take.
const (
	minIterations = 3
	maxPhase      = 100 * time.Second
	maxWait       = 30 * time.Second
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or \"all\"")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "wall seconds to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.saged, "saged", "", "path of the saged binary")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the traced run's CPU profile")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *trace == 1
	if o.workload == "all" {
		if err := runAll(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runOne(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(o, res)
}

// result is the outcome of one run: the operation counts and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what one iteration of a workload runs under.
type env struct {
	o      options
	chk    *checker
	spans  *spanLog // nil in untraced iterations
	iter   int      // 1 for the phase's first iteration, 2 for the next...
	layers map[string]float64
	// inProcess hosts saged's handler in this process instead of starting
	// a child (the traced run's layout, so the profile sees the daemon).
	inProcess bool
}

func (e *env) traced() bool { return e.spans != nil }

// iteration is one measured end-to-end execution: set-up, then the run to
// the final report.
type iteration struct {
	setup, run time.Duration
	// setups are every set-up timed for the iteration, net of steal: the
	// extra ones and setup itself.
	setups []time.Duration
	// calls are the wall latencies of the public calls the run is made of:
	// HTTP requests for saged, one-window RunFor slices or Gather rounds for
	// library runs.
	calls []time.Duration
	// rssMiB is the peak RSS of the process that ran the simulation: the
	// saged child, or this process during the iteration.
	rssMiB float64
	out    outcome
	// steal is the share of the iteration's CPU demand the hypervisor
	// withheld (see netOfSteal).
	steal float64
}

// netOfSteal removes hypervisor steal from the iteration's wall times. On a
// shared virtual machine the host takes the vCPUs away for a share of the
// time they want to run that drifts over tens of seconds (0-43% on the
// 2-vCPU host this benchmark was tuned on), which moved a run's median wall
// time by a half from one minute to the next. The benchmark is the only
// load of its machine, so every wall interval is scaled by 1-steal, the
// share of the iteration's CPU demand the vCPUs actually ran: the wall time
// the iteration takes when nothing is withheld. With no steal it is the
// plain wall time.
func (it *iteration) netOfSteal() {
	f := 1 - it.steal
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	it.setup, it.run = scale(it.setup), scale(it.run)
	for i, d := range it.calls {
		if d != failedLatency {
			it.calls[i] = scale(d)
		}
	}
}

// outcome is what SAGE decided, deterministic for a seed. digest fingerprints
// it so every iteration of a run can be checked against the first.
type outcome struct {
	costUSD, windowP95, makespan, completionP95 float64
	digest                                      string
}

// instance is a workload prepared for one seed.
type instance interface {
	// setup builds a ready world the way iterate does, drops it, and
	// returns how long the build took: the extra set-ups setup_s takes its
	// median over.
	setup(e *env) (time.Duration, error)
	iterate(e *env) (iteration, error)
}

func runOne(o options) (*result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	chk := &checker{}
	inst, err := w.prepare(o)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	// Hand back what prepare's own runs left, so it is not in any
	// iteration's peak RSS.
	debug.FreeOSMemory()
	printHost(o)
	if !o.trace {
		its, _, err := iterate(o, inst, chk, phase{
			budget: time.Duration(o.seconds) * time.Second, limit: maxPhase, minCalls: minAPISamples,
		})
		if err != nil {
			return nil, err
		}
		return endToEndResult(w, chk, its)
	}
	return tracedResult(o, w, inst, chk)
}

// phase is one measuring phase of a run.
type phase struct {
	spans     *spanLog // non-nil: traced iterations
	inProcess bool     // the traced run's process layout
	// budget is how long to keep starting iterations, limit when to stop
	// regardless, and minCalls how many timed calls to collect before
	// stopping.
	budget, limit time.Duration
	minCalls      int
}

// iterate runs one phase's iterations: until the budget has passed, at
// least minIterations ran and at least minCalls public calls were timed,
// or the limit is reached. It returns the last iteration's layer counters
// (traced phases only).
func iterate(o options, inst instance, chk *checker, p phase) ([]iteration, map[string]float64, error) {
	var its []iteration
	var layers map[string]float64
	start := time.Now()
	calls := 0
	for len(its) < minIterations || time.Since(start) < p.budget || calls < p.minCalls {
		if time.Since(start) > p.limit {
			break
		}
		e := &env{o: o, chk: chk, spans: p.spans, iter: len(its) + 1, inProcess: p.inProcess}
		if p.spans != nil {
			e.layers = make(map[string]float64)
		}
		// Only the end-to-end run reports setup_s; extra set-ups in a
		// traced run would dilute the layer shares of the workload itself.
		var setups []time.Duration
		var err error
		if !o.trace {
			if setups, err = extraSetups(inst, e); err != nil {
				return nil, nil, err
			}
		}
		cpu0, err := readCPUTicks()
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		it, err := inst.iterate(e)
		if err != nil {
			return nil, nil, err
		}
		if it.rssMiB == 0 {
			if it.rssMiB, err = vmHWM("self"); err != nil {
				return nil, nil, err
			}
		}
		cpu1, err := readCPUTicks()
		if err != nil {
			return nil, nil, err
		}
		it.steal = cpu1.stealShare(cpu0)
		it.netOfSteal()
		it.setups = append(setups, it.setup)
		if len(its) > 0 {
			chk.check(it.out.digest == its[0].out.digest,
				"iteration %d decided differently: %s vs %s", len(its)+1, it.out.digest, its[0].out.digest)
		}
		fmt.Fprintf(os.Stderr, "iteration %d: %d set-ups median %.4fs, run %.4fs, calls %d, rss %.1f MiB (net of %.1f%% steal)\n",
			len(its)+1, len(it.setups), median(seconds(it.setups)), it.run.Seconds(), len(it.calls), it.rssMiB, 100*it.steal)
		layers = e.layers
		its = append(its, it)
		calls += len(it.calls)
	}
	return its, layers, nil
}

// Set-up takes milliseconds to a tenth of a second, so one sample per
// iteration is too few for a steady setup_s. Before each iteration the
// benchmark sets up and drops extra worlds: at least setupsPerIteration-1
// of them, and for at least minSetupBlock, long enough for /proc/stat's
// 10 ms ticks to measure the block's own steal.
const (
	setupsPerIteration = 5
	minSetupBlock      = 250 * time.Millisecond
)

// extraSetups times the extra set-ups before an iteration, net of the
// steal measured over them.
func extraSetups(inst instance, e *env) ([]time.Duration, error) {
	cpu0, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	var setups []time.Duration
	for start := time.Now(); len(setups) < setupsPerIteration-1 || time.Since(start) < minSetupBlock; {
		// Every set-up, like every iteration, starts from a collected heap,
		// so one's garbage is not charged to the next.
		runtime.GC()
		d, err := inst.setup(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	cpu1, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	f := 1 - cpu1.stealShare(cpu0)
	for i, d := range setups {
		setups[i] = time.Duration(float64(d) * f)
	}
	return setups, nil
}

// minAPISamples keeps at least ten samples beyond the reported p95.
const minAPISamples = 200

// apiP95Limit is the latency limit on api_p95_ms for the workload served
// over HTTP. A run that misses it counts one failed operation; failed
// requests count as missing it.
const apiP95Limit = time.Second

func endToEndResult(w workloadDef, chk *checker, its []iteration) (*result, error) {
	var setup, run, rss, calls, steal []float64
	for _, it := range its {
		steal = append(steal, it.steal)
		setup = append(setup, seconds(it.setups)...)
		run = append(run, it.run.Seconds())
		calls = append(calls, millis(it.calls)...)
		rss = append(rss, it.rssMiB)
	}
	out := its[0].out
	vals := map[string]float64{
		"setup_s":               median(setup),
		"run_s":                 median(run),
		"rss_peak_mib":          median(rss),
		"cost_usd":              out.costUSD,
		"window_latency_p95_vs": out.windowP95,
		"makespan_vs":           out.makespan,
		"job_completion_p95_vs": out.completionP95,
	}
	fmt.Printf("iterations: %d, hypervisor steal: median %.1f%% (times are net of it)\n", len(its), 100*median(steal))
	p50, p95 := quantile(calls, 0.5), quantile(calls, 0.95)
	fmt.Printf("api: %d timed calls, p50 %.3f ms, p95 %.3f ms\n", len(calls), p50, p95)
	if w.served {
		ok := p95 <= float64(apiP95Limit)/float64(time.Millisecond)
		chk.check(ok, "api p95 %.1f ms over the %v limit", p95, apiP95Limit)
		fmt.Printf("api p95 limit %v met: %v\n", apiP95Limit, ok)
	}
	res := newResult(chk)
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

func newResult(chk *checker) *result {
	return &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metric),
	}
}

// tracedResult runs the workload untraced and then traced, each for half
// the budget, with the same process layout: the traced half enables
// observability, records spans and a CPU profile, and yields the
// per-layer metrics.
func tracedResult(o options, w workloadDef, inst instance, chk *checker) (*result, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	plain, _, err := iterate(o, inst, chk, phase{inProcess: true, budget: half, limit: maxPhase / 2})
	if err != nil {
		return nil, err
	}
	traceLog := newSpanLog()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	// Sample at profileHz, not pprof's default 100 Hz: StartCPUProfile
	// keeps a rate set before it (and says so on stderr).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	its, vals, err := iterate(o, inst, chk, phase{spans: traceLog, inProcess: true, budget: half, limit: maxPhase / 2})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	n := float64(len(its))

	profPath := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, o.seed))
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	byLayer, err := cpuByLayer(profPath)
	if err != nil {
		return nil, err
	}

	var sampled int64
	for _, ns := range byLayer {
		sampled += ns
	}
	selfS := func(layer string) float64 { return cpu.Seconds() / n * float64(byLayer[layer]) / float64(sampled) }
	for _, l := range layerNames {
		vals[l+".self_s"] = selfS(l)
	}
	vals["runtime.other_s"] = selfS(otherLayer)
	vals["proc.cpu_s"] = cpu.Seconds() / n
	vals["proc.alloc_mib"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	vals["core.window_wall_ms_max"] = quantile(millis(traceLog.durations("runfor")), 1)
	for _, r := range routes {
		vals["daemon.http."+r+".p95_ms"] = quantile(millis(traceLog.durations("http "+r)), 0.95)
	}
	var plainRun, plainCalls, tracedRun, steal []float64
	for _, it := range plain {
		plainRun = append(plainRun, it.run.Seconds())
		plainCalls = append(plainCalls, millis(it.calls)...)
	}
	for _, it := range its {
		tracedRun = append(tracedRun, it.run.Seconds())
		steal = append(steal, it.steal)
	}
	vals["bench.trace_overhead_ratio"] = median(tracedRun) / median(plainRun)
	vals["bench.steal_share"] = median(steal)
	vals["api_p50_ms"] = quantile(plainCalls, 0.5)
	vals["api_p95_ms"] = quantile(plainCalls, 0.95)

	// A layer the workload does not reach reports 0 (no timed call, no
	// request of that route).
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			vals[k] = 0
		}
	}
	printLayerTable(w, chk, byLayer, vals, cpu.Seconds()/n, len(plain), len(its))
	res := newResult(chk)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// profileHz is the traced run's CPU profile rate, asked for above pprof's
// default 100 Hz so layers with a few tenths of a per cent of the CPU (the
// daemon on saged-multitenant) still get samples. The kernel delivers at
// most one sample per scheduler tick (250 Hz on the host this was tuned
// on), so a sample does not stand for a fixed CPU time: each layer's
// self_s is its share of the samples times the CPU time the process used.
const profileHz = 1000

// cpuTicks are the machine-wide CPU time counters of /proc/stat, in ticks.
type cpuTicks struct{ busy, steal int64 }

// readCPUTicks reads the aggregate "cpu" line of /proc/stat: busy is user,
// nice, system, irq and softirq time; steal is time a vCPU wanted to run and
// the hypervisor ran something else.
func readCPUTicks() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var t cpuTicks
	for i, field := range f[1:9] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		switch i {
		case 0, 1, 2, 5, 6: // user nice system irq softirq
			t.busy += v
		case 7:
			t.steal += v
		}
	}
	return t, nil
}

// stealShare returns the share of CPU demand since start that was stolen.
func (t cpuTicks) stealShare(start cpuTicks) float64 {
	steal, busy := t.steal-start.steal, t.busy-start.busy
	if steal+busy <= 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}

// cpuTime returns this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printLayerTable prints the traced run's layer shares and counters, and
// checks each CPU share the workload was chosen for: a share outside its
// limit is one failed operation.
func printLayerTable(w workloadDef, chk *checker, cpu map[string]int64, vals map[string]float64, cpuS float64, plain, traced int) {
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	share := func(layers ...string) float64 {
		var ns int64
		for _, l := range layers {
			ns += cpu[l]
		}
		return 100 * float64(ns) / float64(total)
	}
	fmt.Printf("layer table: %s (%d traced iterations, %d untraced; CPU seconds per iteration)\n", w.name, traced, plain)
	for _, r := range sortedLayers(cpu) {
		fmt.Printf("  %-14s %9.3f s  %5.1f%%\n", r.layer, cpuS*float64(r.cpuNs)/float64(total), 100*float64(r.cpuNs)/float64(total))
	}
	fmt.Println("layers this workload was chosen to load:")
	for _, l := range w.loads {
		got := share(l.layers...)
		ok := (l.atLeast && got >= l.pct) || (!l.atLeast && got <= l.pct)
		verdict := "as designed"
		if !ok {
			verdict = "NOT as designed"
		}
		op := "<="
		if l.atLeast {
			op = ">="
		}
		name := strings.Join(l.layers, " + ")
		chk.check(ok, "%s: %s at %.2f%% of CPU, want %s %g%%", w.name, name, got, op, l.pct)
		fmt.Printf("  %-34s %5.2f%% (want %s %g%%) %s\n", name, got, op, l.pct, verdict)
	}
	fmt.Println("counters:")
	for _, m := range perLayer {
		if !strings.HasSuffix(m.name, ".self_s") {
			fmt.Printf("  %-32s %14.4f %s\n", m.name, vals[m.name], m.unit)
		}
	}
	fmt.Println("layer -> end-to-end metric it should move:")
	for _, le := range layerEffects {
		fmt.Printf("  %-30s %s\n", le.layers, le.moves)
	}
}

// printHost stamps the run with the host it ran on, so figures are only
// compared between runs on the same host.
func printHost(o options) {
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit())
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source the benchmark was built from: the git commit when
// the working directory is a git checkout, otherwise a hash of every Go
// source and module file under it ("tree-<hash>").
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:6])
}

func printResult(o options, res *result) {
	fmt.Printf("result: %s correct=%v attempted=%d failed=%d\n", o.workload, res.Correct, res.Attempted, res.Failed)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runAll runs every workload in its own child process and prints one table
// of every metric by name and unit, plus the failed-operation share.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	printHost(o)
	all := newResult(&checker{})
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Printf("%-36s", "metric")
	for _, name := range workloadNames() {
		fmt.Printf(" %18s", name)
	}
	fmt.Println()
	results := make([]*result, 0, len(workloads))
	for _, name := range workloadNames() {
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-saged", o.saged, "-out", o.out}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("%s: result: %w", name, err)
		}
		results = append(results, &r)
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		all.Correct = all.Correct && r.Correct
		for k, m := range r.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	for _, m := range defs {
		fmt.Printf("%-36s", m.name+" ("+m.unit+")")
		for _, r := range results {
			fmt.Printf(" %18.6g", r.Metrics[m.name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-36s", "failed operations")
	for _, r := range results {
		fmt.Printf(" %18s", fmt.Sprintf("%d/%d (%.1f%%)", r.Failed, r.Attempted, 100*float64(r.Failed)/float64(r.Attempted)))
	}
	fmt.Println()
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
