package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// tally collects one run's measurements. Client goroutines record into
// it concurrently, so every method locks.
type tally struct {
	mu        sync.Mutex
	setups    []time.Duration // start of the system under test → first correct result
	lat       []time.Duration // successful ops in the measured window
	window    time.Duration   // wall time of the measured window
	attempted int
	failed    int
	cpu       time.Duration // CPU of the system under test over the window
	rss       []float64     // peak RSS samples, bytes
	q         quality
	svc       svcTally
	checks    int      // cross-path byte-identity comparisons made
	problems  []string // every failed check, for stderr
}

// ok records a successful op.
func (t *tally) ok(lat time.Duration) {
	t.mu.Lock()
	t.attempted++
	t.lat = append(t.lat, lat)
	t.mu.Unlock()
}

// fail records a failed op: an error reply, a non-zero exit, or an
// output that did not check.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// problem records a failed check outside the measured ops (set-up, or
// the cross-path comparisons made after the window).
func (t *tally) problem(format string, args ...any) {
	t.mu.Lock()
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// compared records one cross-path comparison and its outcome.
func (t *tally) compared(err error) {
	t.mu.Lock()
	t.checks++
	t.mu.Unlock()
	if err != nil {
		t.problem("%v", err)
	}
}

// with runs fn with the tally locked.
func (t *tally) with(fn func(*tally)) {
	t.mu.Lock()
	fn(t)
	t.mu.Unlock()
}

// correct is the result line's verdict: ops ran and every check passed.
func (t *tally) correct() bool {
	return len(t.problems) == 0 && t.failed == 0 && len(t.lat) > 0 && len(t.setups) > 0
}

// endToEnd computes the metrics a user of deviant sees.
func (t *tally) endToEnd() map[string]metric {
	ops := float64(len(t.lat))
	tail := sortedDurations(t.lat)
	k, _ := tailRank(len(tail))
	m := map[string]metric{
		"setup_s":         {medianDuration(t.setups).Seconds(), "s"},
		"latency_p50_ms":  {ms(medianDuration(t.lat)), "ms"},
		"latency_tail_ms": {0, "ms"},
		"ops_per_s":       {0, "1/s"},
		"cpu_ms_per_op":   {0, "ms"},
		"peak_rss_mb":     {medianFloat(t.rss) / 1e6, "MB"},
		"ok_frac":         {0, "ratio"},
		"recall":          {0, "ratio"},
		"precision":       {0, "ratio"},
		"inspect_depth":   {0, "count"},
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	if len(tail) > 0 {
		set("latency_tail_ms", ms(tail[k-1]))
		set("cpu_ms_per_op", ms(t.cpu)/ops)
	}
	if t.window > 0 {
		set("ops_per_s", ops/t.window.Seconds())
	}
	if t.attempted > 0 {
		set("ok_frac", float64(t.attempted-t.failed)/float64(t.attempted))
	}
	if t.q.tp+t.q.fn > 0 {
		set("recall", float64(t.q.tp)/float64(t.q.tp+t.q.fn))
	}
	if t.q.reports > 0 {
		set("precision", float64(t.q.tp)/float64(t.q.reports))
	}
	if t.q.trees > 0 {
		set("inspect_depth", float64(t.q.depth)/float64(t.q.trees))
	}
	return m
}

// tailRank picks the tail sample of n sorted latencies: the highest
// rank k (1-based) with at least ten samples beyond it, which stands at
// percentile 100·k/n, and how many samples lie beyond. Below eleven
// samples no rank qualifies and the maximum is used, with none beyond.
func tailRank(n int) (k int, beyond int) {
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return n, 0
	}
	return n - 10, 10
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianDuration is the middle sample (mean of the two middle ones for
// an even count), 0 for none.
func medianDuration(ds []time.Duration) time.Duration {
	s := sortedDurations(ds)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
