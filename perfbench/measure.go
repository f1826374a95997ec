package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics (the convention of numpy's default and of
// statistics.quantiles(method="inclusive")). vals need not be sorted; an
// empty input yields NaN.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// checker counts the benchmark's operations: every output check and every
// HTTP request is one attempt; a mismatch, a non-2xx answer or a timeout is
// one failure. Safe for concurrent use by the open-loop request goroutines.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// check records one verified output.
func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.errs) < 20 {
			c.errs = append(c.errs, fmt.Sprintf(format, args...))
		}
	}
}

// spanLog keeps, in memory, the duration of each call the traced run makes
// into the system under test, by span name. A nil log records nothing, so
// untraced runs pay one branch per call.
type spanLog struct {
	mu    sync.Mutex
	spans map[string][]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{spans: make(map[string][]time.Duration)} }

// add records a call named name that started at start and ended now.
func (l *spanLog) add(name string, start time.Time) {
	if l == nil {
		return
	}
	d := time.Since(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[name] = append(l.spans[name], d)
}

// durations returns the durations of every span with the given name.
func (l *spanLog) durations(name string) []time.Duration {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.spans[name]...)
}

// resetPeakRSS resets this process's peak RSS (VmHWM) to its current RSS,
// so a later vmHWM("self") covers only what ran in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// vmHWM returns a process's peak resident set size in MiB, read from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", f[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// promSums parses Prometheus text exposition and sums every sample of each
// metric name over its label sets.
func promSums(text []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
