package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/daemon"
	"sage/internal/rng"
	"sage/internal/scenario"
)

// routes are the HTTP routes the open loop times, by the names the
// per-layer metrics use.
var routes = []string{"jobs_list", "job_get", "metrics", "report", "clock_post"}

// requestTimeout bounds one HTTP request; a request that takes longer
// counts as failed.
const requestTimeout = 10 * time.Second

type tenantRun struct {
	in     *tenantInput
	body   []byte
	oracle *apiv1.MultiReport
}

func prepareTenant(o options) (instance, error) {
	in := genTenant(o.seed, o.small)
	if err := scenario.Validate(in.roster); err != nil {
		return nil, err
	}
	var body bytes.Buffer
	if err := apiv1.EncodeRoster(&body, in.roster); err != nil {
		return nil, err
	}
	// What saged must report: the same roster run in this process through
	// scenario.Run, computed once per seed outside the timed iterations.
	res, err := scenario.Run(in.roster)
	if err != nil {
		return nil, fmt.Errorf("in-process roster run: %w", err)
	}
	return &tenantRun{in: in, body: body.Bytes(), oracle: res.Multi.Wire()}, nil
}

// server is one saged instance for one iteration: a child process, or in
// the traced layout the daemon's handler served from this process.
type server struct {
	base   string
	cmd    *exec.Cmd
	d      *daemon.Daemon
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
}

func startChild(path string) (*server, error) {
	if path == "" {
		return nil, errors.New("saged-multitenant needs -saged, the path of the saged binary")
	}
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-paused")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd}
	lineC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lineC <- sc.Text()
		} else {
			close(lineC)
		}
		io.Copy(io.Discard, stdout) // keep the pipe drained until exit
	}()
	select {
	case line, ok := <-lineC:
		_, url, found := strings.Cut(line, "listening on ")
		if !ok || !found {
			s.stop()
			return nil, fmt.Errorf("saged did not announce its address (got %q)", line)
		}
		s.base = url
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("saged did not start within 30s")
	}
	return s, nil
}

func startInProcess() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{d: daemon.New(daemon.Options{StartPaused: true}), served: make(chan struct{})}
	s.srv = &http.Server{Handler: s.d.Handler()}
	go func() {
		s.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
		close(s.served)
	}()
	s.base = "http://" + ln.Addr().String()
	return s, nil
}

// peakRSS returns the child's peak RSS in MiB (0 for an in-process daemon).
func (s *server) peakRSS() (float64, error) {
	if s.cmd == nil {
		return 0, nil
	}
	return vmHWM(strconv.Itoa(s.cmd.Process.Pid))
}

// stop shuts the daemon down and waits for it to exit.
func (s *server) stop() {
	if s.cmd != nil {
		s.cmd.Process.Signal(syscall.SIGINT)
		done := make(chan struct{})
		go func() { s.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-done
		}
		return
	}
	s.srv.Close()
	<-s.served
	s.d.Stop()
}

// client is the benchmark's HTTP side: at most two connections, every
// request timed and checked.
type client struct {
	e    *env
	base string
	hc   *http.Client
	mu   sync.Mutex
	lat  map[string][]time.Duration
}

func newClient(e *env, base string) *client {
	return &client{
		e: e, base: base, lat: make(map[string][]time.Duration),
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
			},
		},
	}
}

// do sends one request and checks its status. The latency counts from due,
// the instant the request was due to be sent. It returns the body, nil on
// failure.
func (c *client) do(route, method, path string, body []byte, want int, due time.Time) []byte {
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.e.chk.check(false, "%s %s: %v", method, path, err)
		return nil
	}
	resp, err := c.hc.Do(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(due)
	c.e.spans.add("http "+route, due)
	ok := err == nil && resp.StatusCode == want
	switch {
	case err != nil:
		c.e.chk.check(false, "%s %s: %v", method, path, err)
	case !ok:
		c.e.chk.check(false, "%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(out))
	default:
		c.e.chk.check(true, "")
	}
	if !ok {
		// A failed or refused request misses any latency limit.
		lat = failedLatency
	}
	c.mu.Lock()
	c.lat[route] = append(c.lat[route], lat)
	c.mu.Unlock()
	if !ok {
		return nil
	}
	return out
}

// failedLatency is the latency recorded for a failed request: beyond any
// limit, so failures count against the API percentiles.
const failedLatency = time.Duration(math.MaxInt64)

func (c *client) close() { c.hc.CloseIdleConnections() }

// loadGen is the open loop: requests sent on a fixed schedule whatever the
// daemon's progress, over the client's two connections.
type loadGen struct {
	c       *client
	rate    float64
	r       *rng.Rand
	jobs    []string
	done    chan struct{} // closed once a jobs list shows every job finished
	once    sync.Once
	stopC   chan struct{}
	wg      sync.WaitGroup
	lagMu   sync.Mutex
	lag     []time.Duration
	scrapes []int
}

func (g *loadGen) run(start time.Time) {
	defer g.wg.Done()
	interval := time.Duration(float64(time.Second) / g.rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		select {
		case <-g.stopC:
			return
		case <-time.After(time.Until(due)):
		}
		op, job := g.r.Intn(100), g.jobs[g.r.Intn(len(g.jobs))]
		g.lagMu.Lock()
		g.lag = append(g.lag, time.Since(due))
		g.lagMu.Unlock()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.send(op, job, due)
		}()
	}
}

// send performs one operation of the read/write mix: 40% job list, 25% one
// job, 20% /metrics, 15% a clock pause/resume pair. The mix is assumed, not
// measured (see tenantInput.rate): mostly a dashboard's reads, a scraper's
// share of /metrics, and writes as the minority.
func (g *loadGen) send(op int, job string, due time.Time) {
	c := g.c
	switch {
	case op < 40:
		b := c.do("jobs_list", "GET", "/api/v1/jobs", nil, 200, due)
		if b == nil {
			return
		}
		var l apiv1.JobList
		if err := json.Unmarshal(b, &l); err != nil {
			c.e.chk.check(false, "jobs list: %v", err)
			return
		}
		for _, j := range l.Jobs {
			if j.State != "done" && j.State != "cancelled" {
				return
			}
		}
		if len(l.Jobs) > 0 {
			g.once.Do(func() { close(g.done) })
		}
	case op < 65:
		c.do("job_get", "GET", "/api/v1/jobs/"+job, nil, 200, due)
	case op < 85:
		if b := c.do("metrics", "GET", "/metrics", nil, 200, due); b != nil {
			g.lagMu.Lock()
			g.scrapes = append(g.scrapes, len(b))
			g.lagMu.Unlock()
		}
	default:
		c.do("clock_post", "POST", "/api/v1/clock", []byte(`{"action":"pause"}`), 200, due)
		c.do("clock_post", "POST", "/api/v1/clock", []byte(`{"action":"resume"}`), 200, time.Now())
	}
}

// boot starts saged and posts the roster: the set-up of one iteration. The
// caller stops the server and closes the client.
func (t *tenantRun) boot(e *env) (*server, *client, error) {
	var s *server
	var err error
	if e.inProcess {
		s, err = startInProcess()
	} else {
		s, err = startChild(e.o.saged)
	}
	if err != nil {
		return nil, nil, err
	}
	c := newClient(e, s.base)
	if c.do("submit", "POST", "/api/v1/jobs", t.body, http.StatusCreated, time.Now()) == nil {
		c.close()
		s.stop()
		return nil, nil, errors.New("saged refused the roster")
	}
	return s, c, nil
}

func (t *tenantRun) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	s, c, err := t.boot(e)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	c.close()
	s.stop()
	return d, nil
}

func (t *tenantRun) iterate(e *env) (iteration, error) {
	var it iteration
	t0 := time.Now()
	s, c, err := t.boot(e)
	if err != nil {
		return it, err
	}
	defer s.stop()
	defer c.close()
	it.setup = time.Since(t0)
	e.spans.add("setup", t0)

	g := &loadGen{
		c: c, rate: t.in.rate, done: make(chan struct{}), stopC: make(chan struct{}),
		r: rng.New(e.o.seed).Split(fmt.Sprintf("perfbench/open-loop/%d", e.iter)),
	}
	for _, j := range t.in.roster.Jobs {
		g.jobs = append(g.jobs, j.Name)
	}
	t1 := time.Now()
	c.do("clock_post", "POST", "/api/v1/clock", []byte(`{"action":"resume"}`), 200, t1)
	g.wg.Add(1)
	go g.run(t1)
	var rep *apiv1.MultiReport
	select {
	case <-g.done:
		b := c.do("report", "GET", "/api/v1/report", nil, 200, time.Now())
		it.run = time.Since(t1)
		if b != nil {
			rep = &apiv1.MultiReport{}
			if err := json.Unmarshal(b, rep); err != nil {
				e.chk.check(false, "report: %v", err)
				rep = nil
			}
		}
	case <-time.After(maxWait):
		e.chk.check(false, "saged-multitenant: roster not finished after %v", maxWait)
		it.run = time.Since(t1)
	}
	close(g.stopC)
	g.wg.Wait()
	if it.rssMiB, err = s.peakRSS(); err != nil {
		return it, err
	}
	for _, r := range routes {
		if r != "report" {
			it.calls = append(it.calls, c.lat[r]...)
		}
	}
	if e.traced() {
		t.counters(e, c, g, rep)
	}
	if rep == nil {
		// The failed request is already counted; nothing else to check.
		it.out.digest = "no report"
		return it, nil
	}
	t.checkReport(e, rep)
	var worst float64
	for _, j := range rep.Jobs {
		if j.Report != nil && j.Report.Latency.P95 > worst {
			worst = j.Report.Latency.P95
		}
	}
	it.out = outcome{
		costUSD: rep.TotalCost, windowP95: worst,
		makespan:      time.Duration(rep.Makespan).Seconds(),
		completionP95: rep.Completion.P95, digest: rep.Fingerprint,
	}
	return it, nil
}

// checkReport compares saged's report with the in-process run of the same
// roster and checks that per-job figures sum to the roster totals.
func (t *tenantRun) checkReport(e *env, rep *apiv1.MultiReport) {
	e.chk.check(rep.Fingerprint == t.oracle.Fingerprint,
		"saged-multitenant: fingerprint %s, in-process run %s", rep.Fingerprint, t.oracle.Fingerprint)
	e.chk.check(len(rep.Jobs) == len(t.in.roster.Jobs),
		"saged-multitenant: %d jobs reported, %d submitted", len(rep.Jobs), len(t.in.roster.Jobs))
	var events, bytes int64
	for _, j := range rep.Jobs {
		if j.Report == nil {
			e.chk.check(false, "saged-multitenant: job %s has no report", j.Name)
			continue
		}
		events += j.Report.TotalEvents
		bytes += j.Report.TotalBytes
		e.chk.check(j.Report.Incomplete == 0, "saged-multitenant: job %s has %d incomplete windows", j.Name, j.Report.Incomplete)
	}
	e.chk.check(events == rep.TotalEvents, "saged-multitenant: job events sum to %d, total %d", events, rep.TotalEvents)
	e.chk.check(bytes == rep.TotalBytes, "saged-multitenant: job bytes sum to %d, total %d", bytes, rep.TotalBytes)
}

// counters fills the traced iteration's per-layer counters from saged's
// public surface: /metrics, /api/v1/clock and the report.
func (t *tenantRun) counters(e *env, c *client, g *loadGen, rep *apiv1.MultiReport) {
	l := e.layers
	if b := c.do("metrics", "GET", "/metrics", nil, 200, time.Now()); b != nil {
		m := promSums(b)
		e.promCounters(m)
		l["route.replans"] = m["sage_planner_replans_total"]
		l["route.full_recomputes"] = m["sage_planner_full_recomputes_total"]
		if r := m["sage_planner_replans_total"]; r > 0 {
			l["route.cache_hit_ratio"] = m["sage_planner_cache_hits_total"] / r
		}
	}
	if b := c.do("clock_get", "GET", "/api/v1/clock", nil, 200, time.Now()); b != nil {
		var clk apiv1.Clock
		if err := json.Unmarshal(b, &clk); err == nil {
			l["simtime.events"] = float64(clk.Fired)
		}
	}
	var scrape []float64
	for _, n := range g.scrapes {
		scrape = append(scrape, float64(n)/1024)
	}
	l["obs.scrape_kib"] = median(scrape)
	l["bench.gen_lag_ms"] = quantile(millis(g.lag), 0.95)
	if rep == nil {
		return
	}
	var waits []float64
	preempts := 0
	for _, j := range rep.Jobs {
		waits = append(waits, time.Duration(j.Wait).Seconds())
		preempts += j.Preemptions
	}
	l["workload.events"] = float64(rep.TotalEvents)
	l["sched.wait_p95_vs"] = quantile(waits, 0.95)
	l["sched.preempts"] = float64(preempts)
}
