package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/monitor"
	"sage/internal/obs"
	"sage/internal/resilience"
	"sage/internal/rng"
	"sage/internal/scenario"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// workloadDef is one named workload: prepare generates its inputs from the
// seed and computes, outside any timed iteration, what the checks compare
// against.
type workloadDef struct {
	name    string
	prepare func(o options) (instance, error)
	// loads states the CPU shares the traced run should show: the layers
	// the workload was chosen to load, or to leave alone.
	loads []load
	// served marks the workload served over HTTP, whose API percentile has
	// a latency limit (apiP95Limit).
	served bool
}

// load is one expected CPU share of a group of layers in the traced run.
type load struct {
	layers  []string
	atLeast bool // share >= pct; otherwise share <= pct
	pct     float64
}

// The end-to-end metrics mean the same thing on every workload wherever
// the workload has the thing measured, and the nearest equivalent where it
// does not:
//
//   - window_latency_p95_vs: p95 of window close → last partial at the sink
//     (geo-stream, recover); the worst job's p95 (saged-multitenant); p95 of
//     one site's delivery time in a collection round (geo-gather).
//   - makespan_vs: job start → last partial landed (geo-stream, recover);
//     roster makespan (saged-multitenant); all rounds (geo-gather).
//   - job_completion_p95_vs: MultiReport.Completion.P95
//     (saged-multitenant); the one job's completion, equal to makespan_vs
//     (geo-stream, recover, and geo-gather, whose rounds make one job).
//   - api_p50_ms / api_p95_ms (per-layer, from the traced run's untraced
//     half): wall latency of the public calls a user makes: open-loop HTTP
//     requests timed from their due send time (saged-multitenant);
//     one-window Sched.RunFor slices (geo-stream, recover); Gather calls
//     (geo-gather).
var workloads = []workloadDef{
	{name: "geo-stream", prepare: prepareStream, loads: []load{
		{[]string{"workload", "rng", "stream"}, true, 75},
		{[]string{"netsim", "transfer", "route"}, false, 10},
	}},
	{name: "geo-gather", prepare: prepareGather, loads: []load{
		{[]string{"netsim", "transfer", "route"}, true, 70},
		{[]string{"stream", "workload"}, false, 1},
	}},
	// The profile resolves about 250 samples per CPU second (one per
	// kernel tick), and a traced run of this roster spends 10-20 CPU
	// seconds. The daemon alone took 0.1-0.6% of them, as few as four
	// samples, so it is checked together with apiv1, the wire codec its
	// handlers encode through. sched is not checked: at about a twentieth
	// of a per cent it gets two or three samples, and a run with none is
	// too likely. The layer table still shows both shares, and sched's
	// load shows in sched.preempts and sched.wait_p95_vs.
	{name: "saged-multitenant", prepare: prepareTenant, served: true, loads: []load{
		{[]string{"daemon", "apiv1"}, true, 0.01},
		{[]string{"obs"}, true, 0.01},
	}},
	{name: "recover", prepare: prepareRecover, loads: []load{
		{[]string{"stream", "resilience"}, true, 50},
	}},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// observer returns a fresh observability layer for a traced iteration, nil
// (observability off) otherwise.
func (e *env) observer() *obs.Observer {
	if e.traced() {
		return obs.NewObserver()
	}
	return nil
}

// engineCounters fills the traced iteration's per-layer counters from the
// engine's public counters and its sage_* series.
func (e *env) engineCounters(eng *core.Engine) {
	var prom bytes.Buffer
	if err := eng.Obs.Registry().WritePrometheus(&prom); err != nil {
		e.chk.check(false, "metrics export: %v", err)
	}
	e.layers["obs.scrape_kib"] = float64(prom.Len()) / 1024
	e.promCounters(promSums(prom.Bytes()))
	st := eng.Mgr.Planner().Stats()
	e.layers["route.replans"] = float64(st.Replans)
	e.layers["route.full_recomputes"] = float64(st.FullRecomputes)
	if st.Replans > 0 {
		e.layers["route.cache_hit_ratio"] = float64(st.CacheHits) / float64(st.Replans)
	}
	e.layers["simtime.events"] = float64(eng.Sched.Fired())
}

// promCounters copies the sage_* series the layer table reports.
func (e *env) promCounters(m map[string]float64) {
	l := e.layers
	l["netsim.egress_mib"] = m["sage_egress_bytes_total"] / (1 << 20)
	l["transfer.started"] = m["sage_transfers_started_total"]
	l["transfer.chunk_acks"] = m["sage_chunk_acks_total"]
	l["transfer.retransmits"] = m["sage_retransmits_total"]
	if acks := m["sage_chunk_acks_total"]; acks > 0 {
		l["transfer.useful_ratio"] = acks / (acks + m["sage_retransmits_total"])
	}
	l["monitor.probes"] = m["sage_probes_total"]
	l["core.windows"] = m["sage_windows_completed_total"]
	l["core.partials"] = m["sage_partials_shipped_total"]
}

// runSlices drives a started job in one-window RunFor slices until it is
// done, timing each slice as one public call.
func runSlices(e *env, eng *core.Engine, run *core.JobRun, window time.Duration, it *iteration) error {
	for n := 0; !run.Done(); n++ {
		if n > 100000 {
			return fmt.Errorf("job not done after %d windows", n)
		}
		t := time.Now()
		eng.Sched.RunFor(window)
		it.calls = append(it.calls, time.Since(t))
		e.spans.add("runfor", t)
	}
	return nil
}

// answerDigest fingerprints a merged global answer: every (key, value) pair
// in key order.
func answerDigest(a *stream.KeyedAgg) string {
	h := fnv.New64a()
	for _, kv := range a.Result() {
		fmt.Fprintf(h, "%s=%.9g;", kv.Key, kv.Value)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// --- geo-stream ---------------------------------------------------------

type streamRun struct{ in *streamInput }

func prepareStream(o options) (instance, error) {
	return &streamRun{genStream(o.seed, o.small)}, nil
}

// job builds the job spec with fresh generators (they are consumed by a run).
func (s *streamRun) job() core.JobSpec {
	in := s.in
	job := core.JobSpec{
		Sink: cloud.GeneratedHub(0), Window: in.window, Agg: stream.Mean,
		Strategy: transfer.EnvAware, Lanes: 2, Intr: 1,
	}
	gens := rng.New(in.seed).Split("perfbench/geo-stream/gens")
	for _, src := range in.sources {
		gen := workload.NewSensorGen(gens.Split(string(src.site)), src.site, workload.SensorOpts{
			Keys: src.keys, Skew: src.skew, KeyPrefix: string(src.site) + "/",
		})
		job.Sources = append(job.Sources, core.SourceSpec{
			Site: src.site, Rate: workload.ConstantRate(src.rate), Gen: gen,
		})
	}
	return job
}

// build sets up a ready world (topology, VM deploys, monitor warm-up) and
// the job to run on it.
func (s *streamRun) build(e *env) (*core.Engine, core.JobSpec) {
	in := s.in
	world := cloud.GenerateWorld(in.sites, in.regions, envSeed)
	eng := core.NewEngine(core.WithOptions(core.Options{
		Seed: envSeed, Topology: world,
		Monitor: monitor.Options{Interval: 30 * time.Second},
	}), core.WithObservability(e.observer()))
	eng.DeployEverywhere(cloud.Medium, 2)
	eng.Sched.RunFor(in.warmup)
	return eng, s.job()
}

func (s *streamRun) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	s.build(e)
	return time.Since(t0), nil
}

func (s *streamRun) iterate(e *env) (iteration, error) {
	in := s.in
	var it iteration
	t0 := time.Now()
	eng, job := s.build(e)
	it.setup = time.Since(t0)
	e.spans.add("setup", t0)

	t1 := time.Now()
	run, err := eng.Start(job, in.dur)
	if err != nil {
		return it, err
	}
	e.spans.add("start", t1)
	begin := eng.Sched.Now()
	if err := runSlices(e, eng, run, in.window, &it); err != nil {
		return it, err
	}
	rep := run.Finalize()
	it.run = time.Since(t1)

	// Expected output, derived from the generated input alone.
	nWindows := int(in.dur / in.window)
	var events int64
	for _, src := range in.sources {
		for w := range nWindows {
			from := begin + time.Duration(w)*in.window
			events += int64(workload.EventCount(workload.ConstantRate(src.rate), from, in.window))
		}
	}
	e.chk.check(rep.TotalEvents == events, "geo-stream: %d events, want %d", rep.TotalEvents, events)
	e.chk.check(rep.Windows == nWindows, "geo-stream: %d windows, want %d", rep.Windows, nWindows)
	e.chk.check(rep.Incomplete == 0, "geo-stream: %d incomplete windows", rep.Incomplete)

	makespan := (run.CompletedAt() - begin).Seconds()
	it.out = outcome{
		costUSD: rep.TotalCost, windowP95: rep.LatencySummary.P95,
		makespan: makespan, completionP95: makespan,
		digest: fmt.Sprintf("%d/%d/%.6f/%s", rep.Windows, rep.TotalBytes, rep.TotalCost, answerDigest(rep.Global)),
	}
	if e.traced() {
		e.engineCounters(eng)
		e.layers["workload.events"] = float64(rep.TotalEvents)
	}
	return it, nil
}

// --- geo-gather ---------------------------------------------------------

type gatherRun struct{ in *gatherInput }

func prepareGather(o options) (instance, error) {
	in := genGather(o.seed, o.small)
	if err := scenario.Validate(in.roster); err != nil {
		return nil, err
	}
	return &gatherRun{in}, nil
}

func (g *gatherRun) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	scenario.BuildEngine(g.in.roster, core.WithObservability(e.observer()))
	return time.Since(t0), nil
}

func (g *gatherRun) iterate(e *env) (iteration, error) {
	in := g.in
	var it iteration
	t0 := time.Now()
	eng := scenario.BuildEngine(in.roster, core.WithObservability(e.observer()))
	it.setup = time.Since(t0)
	e.spans.add("setup", t0)

	gc := in.roster.Gather
	var sites []cloud.SiteID
	for _, s := range gc.Sites {
		sites = append(sites, cloud.SiteID(s))
	}
	t1 := time.Now()
	var deliveries []float64
	var cost, makespan float64
	h := fnv.New64a()
	for i, files := range in.rounds {
		t := time.Now()
		rep, err := eng.Gather(core.GatherSpec{
			Partials: workload.Partials{Sites: sites, Files: files, FileBytes: in.fileBytes},
			Sink:     cloud.SiteID(gc.Sink), Strategy: transfer.MultipathDynamic,
			Lanes: gc.Lanes, Intr: gc.Intr,
		})
		if err != nil {
			return it, fmt.Errorf("round %d: %w", i, err)
		}
		it.calls = append(it.calls, time.Since(t))
		e.spans.add("gather", t)
		want := int64(len(sites)) * int64(files) * in.fileBytes
		e.chk.check(rep.TotalBytes == want, "geo-gather round %d: delivered %d bytes, want %d", i, rep.TotalBytes, want)
		cost += rep.TotalCost
		makespan += rep.Makespan.Seconds()
		for _, sg := range rep.Sites {
			deliveries = append(deliveries, sg.Duration.Seconds())
		}
		fmt.Fprintf(h, "%d/%d/%.6f;", rep.Makespan, rep.TotalBytes, rep.TotalCost)
	}
	it.run = time.Since(t1)
	it.out = outcome{
		costUSD: cost, windowP95: quantile(deliveries, 0.95),
		makespan: makespan, completionP95: makespan,
		digest: fmt.Sprintf("%016x", h.Sum64()),
	}
	if e.traced() {
		e.engineCounters(eng)
	}
	return it, nil
}

// --- recover ------------------------------------------------------------

type recoverRun struct {
	in         *recoverInput
	twinAnswer string
}

func prepareRecover(o options) (instance, error) {
	in := genRecover(o.seed, o.small)
	if err := scenario.Validate(in.roster); err != nil {
		return nil, err
	}
	// The failure-free twin's answer, computed once per seed outside the
	// timed iterations.
	res, err := scenario.Run(in.twin)
	if err != nil {
		return nil, fmt.Errorf("failure-free twin: %w", err)
	}
	return &recoverRun{in: in, twinAnswer: answerDigest(res.Report.Global)}, nil
}

// build sets up the world and the resilient job to run on it.
func (r *recoverRun) build(e *env) (*core.Engine, *core.JobSpec, error) {
	eng := scenario.BuildEngine(r.in.roster, core.WithObservability(e.observer()))
	job, err := scenario.BuildJob(r.in.roster.Seed, r.in.roster.Job, "scenario/")
	return eng, job, err
}

func (r *recoverRun) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	_, _, err := r.build(e)
	return time.Since(t0), err
}

func (r *recoverRun) iterate(e *env) (iteration, error) {
	in := r.in
	var it iteration
	t0 := time.Now()
	eng, job, err := r.build(e)
	if err != nil {
		return it, err
	}
	it.setup = time.Since(t0)
	e.spans.add("setup", t0)

	dur := time.Duration(in.roster.Job.Duration)
	window := time.Duration(in.roster.Job.Window)
	t1 := time.Now()
	run, err := eng.Start(*job, dur)
	if err != nil {
		return it, err
	}
	e.spans.add("start", t1)
	begin := eng.Sched.Now()
	if err := runSlices(e, eng, run, window, &it); err != nil {
		return it, err
	}
	rep := run.Finalize()
	it.run = time.Since(t1)

	rm := rep.Resilience
	e.chk.check(rm != nil, "recover: no resilience metrics")
	if rm == nil {
		rm = &resilience.Metrics{}
	}
	nWindows := int(dur / window)
	answer := answerDigest(rep.Global)
	e.chk.check(rm.Failures == in.kills, "recover: %d failures, want %d", rm.Failures, in.kills)
	e.chk.check(rm.Recoveries == in.kills, "recover: %d recoveries, want %d", rm.Recoveries, in.kills)
	e.chk.check(rep.Windows == nWindows, "recover: %d windows, want %d", rep.Windows, nWindows)
	e.chk.check(rep.Incomplete == 0, "recover: %d incomplete windows", rep.Incomplete)
	e.chk.check(answer == r.twinAnswer, "recover: answer %s, failure-free twin %s", answer, r.twinAnswer)

	makespan := (run.CompletedAt() - begin).Seconds()
	it.out = outcome{
		costUSD: rep.TotalCost, windowP95: rep.LatencySummary.P95,
		makespan: makespan, completionP95: makespan,
		digest: fmt.Sprintf("%d/%d/%.6f/%d/%s", rep.Windows, rep.TotalBytes, rep.TotalCost, rm.DuplicateBytes, answer),
	}
	if e.traced() {
		e.engineCounters(eng)
		e.layers["workload.events"] = float64(rep.TotalEvents)
		e.layers["resilience.checkpoints"] = float64(rm.Checkpoints)
		e.layers["resilience.checkpoint_mib"] = float64(rm.CheckpointBytes) / (1 << 20)
		e.layers["resilience.recoveries"] = float64(rm.Recoveries)
		e.layers["resilience.dup_mib"] = float64(rm.DuplicateBytes) / (1 << 20)
	}
	return it, nil
}
