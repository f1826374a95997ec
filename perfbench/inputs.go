package main

import (
	"fmt"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/cloud"
	"sage/internal/rng"
)

// Every workload input is generated here from the run's seed. The program
// under test receives only these generated specs and rosters. Sizes are
// fixed per workload; the seed varies which sites take part, rates, key
// populations, skews, fault times and victims, files per round and
// arrivals, within ranges narrow enough that the amount of work, and so the
// figures, stay comparable across seeds. small shrinks every workload for
// the benchmark's own tests.
//
// The simulated environment is not an input: every seed runs on the same
// generated topology, weather and cross traffic (envSeed), the way a
// benchmark runs different queries on the same machine. Weather alone moves
// a rough-weather roster's makespan by a quarter from one environment seed
// to the next, which would drown every other difference.
const envSeed = 1

// streamInput is the geo-stream workload: one SAGE-mode job on a generated
// multi-region world, every non-hub site streaming to the region-0 hub.
type streamInput struct {
	seed           uint64 // seeds the sources' event generators
	sites, regions int
	window, dur    time.Duration
	warmup         time.Duration
	sources        []streamSource
}

type streamSource struct {
	site cloud.SiteID
	rate float64
	keys int
	skew float64
}

func genStream(seed uint64, small bool) *streamInput {
	in := &streamInput{
		seed: seed, sites: 120, regions: 8,
		window: 5 * time.Second, dur: 2 * time.Minute, warmup: time.Minute,
	}
	rate := 900.0
	if small {
		in.sites, in.regions, in.dur, rate = 24, 4, 30*time.Second, 200
	}
	r := rng.New(seed).Split("perfbench/geo-stream")
	for i := in.regions; i < in.sites; i++ {
		in.sources = append(in.sources, streamSource{
			site: cloud.GeneratedSiteID(i),
			rate: float64(int(rate * (0.9 + 0.2*r.Float64()))),
			keys: 200 + r.Intn(200),
			skew: 1.1 + 0.3*r.Float64(),
		})
	}
	return in
}

// worldSink is the sink of every roster built on the 9-site worldwide
// topology.
const worldSink = string(cloud.NorthUS)

// worldSources returns the worldwide topology's sites other than the sink.
func worldSources() []string {
	var out []string
	for _, id := range cloud.WorldWide().SiteIDs() {
		if string(id) != worldSink {
			out = append(out, string(id))
		}
	}
	return out
}

// gatherInput is the geo-gather workload: rounds of meta-reducer file
// collection from every other site of the worldwide topology into NUS,
// with cross traffic, over multipath transfers. The weather is the
// default, not rough: under rough weather a round's files shifted by a few
// per cent moved the total makespan by a tenth or more.
type gatherInput struct {
	roster    *apiv1.Roster
	fileBytes int64
	rounds    []int // files per site in each collection round
}

func genGather(seed uint64, small bool) *gatherInput {
	rounds, files := 30, 100
	if small {
		rounds, files = 3, 10
	}
	r := rng.New(seed).Split("perfbench/geo-gather")
	in := &gatherInput{fileBytes: 1 << 20}
	for range rounds {
		in.rounds = append(in.rounds, files-files/10+r.Intn(files/5+1))
	}
	in.roster = &apiv1.Roster{
		Name: "perfbench-geo-gather", Seed: envSeed,
		Topology:     "world",
		CrossTraffic: apiv1.Duration(30 * time.Second),
		Workers:      map[string]int{"Medium": 8},
		Gather: &apiv1.GatherConfig{
			Sites: worldSources(), Files: in.rounds[0], FileBytes: in.fileBytes,
			Sink: worldSink, Strategy: "multipath", Lanes: 3, Intr: 1,
		},
	}
	return in
}

// recoverInput is the recover workload: one resilient job whose sites fail
// and return three times, once at the sink, plus the same job without the
// faults (its failure-free twin).
type recoverInput struct {
	roster *apiv1.Roster
	twin   *apiv1.Roster
	kills  int
}

func genRecover(seed uint64, small bool) *recoverInput {
	keys, rate, dur := 20000, 120.0, 8*time.Minute
	if small {
		keys, rate, dur = 2000, 40, 4*time.Minute
	}
	r := rng.New(seed).Split("perfbench/recover")
	job := &apiv1.JobConfig{
		Sink: worldSink, Window: apiv1.Duration(10 * time.Second), Agg: "mean",
		Strategy: "envaware", Lanes: 2, Intr: 1,
		Duration:           apiv1.Duration(dur),
		CheckpointInterval: apiv1.Duration(15 * time.Second),
	}
	srcs := worldSources()
	for _, s := range srcs {
		job.Sources = append(job.Sources, apiv1.SourceConfig{
			Site: s, Rate: float64(int(rate * (0.9 + 0.2*r.Float64()))),
			Keys: keys - keys/10 + r.Intn(keys/5), Skew: 1.1 + 0.2*r.Float64(),
		})
	}
	// Three 50 s outages in disjoint slots of the stream, starting on the
	// window grid: two distinct source sites, then the sink.
	perm := r.Perm(len(srcs))
	victims := []string{srcs[perm[0]], srcs[perm[1]], worldSink}
	window := time.Duration(job.Window)
	slots := int(dur/window) / (len(victims) + 1)
	outage := 50 * time.Second
	if small {
		outage = 30 * time.Second
	}
	var inj []apiv1.Injection
	for i, site := range victims {
		at := time.Duration((i+1)*slots-2+r.Intn(4)) * window
		inj = append(inj,
			apiv1.Injection{At: apiv1.Duration(at), Kind: "kill_site", From: site},
			apiv1.Injection{At: apiv1.Duration(at + outage), Kind: "restore_site", From: site})
	}
	base := apiv1.Roster{
		Name: "perfbench-recover", Seed: envSeed, Topology: "world",
		Workers: map[string]int{"Medium": 4}, Job: job,
	}
	faulty, twin := base, base
	faulty.Injections = inj
	return &recoverInput{roster: &faulty, twin: &twin, kills: len(victims)}
}

// tenantInput is the saged-multitenant workload: one roster of jobs from
// several tenants under fair-share admission with preemption, on the
// worldwide topology with rough weather and cross traffic.
type tenantInput struct {
	roster *apiv1.Roster
	// rate is the open loop's offered request rate (requests/second). It
	// is assumed, not measured: the repository has no record of control-
	// plane traffic (its CI smoke test sends one request of each kind).
	// 60/s gives each roster run of about 2 s some 120 requests, so two
	// iterations already leave ten samples beyond p95, and keeps the
	// client a small share of a 2-vCPU host.
	rate float64
}

func genTenant(seed uint64, small bool) *tenantInput {
	tenants, perTenant, dur := 4, 3, 3*time.Minute
	if small {
		tenants, perTenant, dur = 2, 2, time.Minute
	}
	r := rng.New(seed).Split("perfbench/saged-multitenant")
	strategies := []string{"envaware", "multipath", "widest", "parallel", "direct"}
	srcs := worldSources()
	ros := &apiv1.Roster{
		Name: "perfbench-saged-multitenant", Seed: envSeed,
		Topology: "world", Weather: "rough",
		CrossTraffic: apiv1.Duration(45 * time.Second),
		Workers:      map[string]int{"Medium": 6},
		Scheduler:    &apiv1.SchedulerConfig{MaxConcurrent: 4, Policy: "fair", Preempt: true},
	}
	// Sites take the partial-shipping jobs' source slots in turn, in a
	// seeded order, so every site feeds about as many jobs whatever the
	// seed.
	order := r.Perm(len(srcs))
	slot := 0
	for n := range tenants * perTenant {
		job := apiv1.MultiJobConfig{
			Name:    fmt.Sprintf("t%d-job%d", n/perTenant, n%perTenant),
			Tenant:  fmt.Sprintf("tenant%d", n/perTenant),
			Arrival: apiv1.Duration(time.Duration(n*10+r.Intn(10)) * time.Second),
		}
		// One job in four is high priority, so preemption engages; one in
		// six ships raw events instead of partials.
		if n%4 == 3 {
			job.Priority = 1
		}
		job.ShipRaw = n%6 == 5
		job.Sink = worldSink
		job.Window = apiv1.Duration(30 * time.Second)
		job.Agg = "mean"
		job.Strategy = strategies[(n+n/perTenant)%len(strategies)]
		job.Lanes = 2
		job.Intr = 1
		job.Duration = apiv1.Duration(dur)
		if job.ShipRaw {
			// Raw shipping is the roster's costliest traffic: draw it from
			// every site, so its egress bill does not hinge on which sites
			// the seed picks.
			for _, site := range srcs {
				job.Sources = append(job.Sources, apiv1.SourceConfig{
					Site: site, Rate: 95 + float64(r.Intn(10)), Keys: 600 + r.Intn(200), Skew: 1.2,
				})
			}
		} else {
			for range 3 {
				job.Sources = append(job.Sources, apiv1.SourceConfig{
					Site: srcs[order[slot%len(srcs)]], Rate: 2600 + float64(r.Intn(200)),
					Keys: 600 + r.Intn(200), Skew: 1.2,
				})
				slot++
			}
		}
		ros.Jobs = append(ros.Jobs, job)
	}
	return &tenantInput{roster: ros, rate: 60}
}
