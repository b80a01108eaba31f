package main

import (
	"fmt"
	"time"
)

// checkerNames are deviant's twelve checkers, in the order the pipeline
// runs them.
var checkerNames = []string{
	"null", "free", "redundant", "retconv", "userptr", "iserr",
	"fail", "lockvar", "pairing", "intr", "seccheck", "reverse",
}

// layerUnits lists every per-layer metric of a traced run with its unit.
// Metrics of a layer a workload does not exercise read 0.
var layerUnits = func() [][2]string {
	u := [][2]string{
		{"ctoken.scan_ms", "ms"}, {"ctoken.tokens", "count"},
		{"cpp.preprocess_ms", "ms"}, {"cpp.cache_hit_ratio", "ratio"}, {"cpp.alloc_mb", "MB"},
		{"cparse.parse_ms", "ms"}, {"cparse.alloc_mb", "MB"},
		{"csem.analyze_ms", "ms"},
		{"cfg.build_ms", "ms"}, {"cfg.graphs", "count"}, {"cfg.alloc_mb", "MB"},
	}
	for _, c := range checkerNames {
		u = append(u, [2]string{"checkers." + c + ".traverse_ms", "ms"}, [2]string{"checkers." + c + ".derive_ms", "ms"})
	}
	return append(u, [][2]string{
		{"engine.visits", "count"}, {"engine.memo_hit_ratio", "ratio"}, {"checkers.alloc_mb", "MB"},
		{"report.rank_ms", "ms"}, {"report.fingerprint_ms", "ms"}, {"report.render_ms", "ms"}, {"report.reports", "count"},
		{"snapshot.unit_hit_ratio", "ratio"}, {"snapshot.graph_hit_ratio", "ratio"}, {"snapshot.evictions", "count"},
		{"service.overhead_ms", "ms"}, {"service.sync_p50_ms", "ms"}, {"service.job_p50_ms", "ms"},
		{"service.job_polls_per_op", "count"}, {"service.rejected_frac", "ratio"},
		{"runtime.gc_cycles_per_op", "count"}, {"runtime.heap_mb", "MB"},
		{"dist.wire_out_mb", "MB"}, {"dist.wire_in_mb", "MB"}, {"dist.shard_p50_ms", "ms"},
		{"dist.coord_tail_ms", "ms"}, {"dist.worker_cpu_share", "ratio"}, {"dist.retries", "count"},
		{"trace.coverage_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
	}...)
}()

// layerMetrics holds a traced run's per-layer values by name.
type layerMetrics struct{ v map[string]float64 }

func newLayerMetrics() *layerMetrics { return &layerMetrics{v: map[string]float64{}} }

func (l *layerMetrics) set(name string, v float64) {
	for _, u := range layerUnits {
		if u[0] == name {
			l.v[name] = v
			return
		}
	}
	panic("perfbench: unknown layer metric " + name)
}

// metrics is the traced run's result: every per-layer metric with its
// unit.
func (l *layerMetrics) metrics() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for _, u := range layerUnits {
		m[u[0]] = metric{l.v[u[0]], u[1]}
	}
	return m
}

// svcTally is the client's view of the service paths.
type svcTally struct {
	sync, job []time.Duration
	polls     int
	attempts  int
	rejected  int
}

func (s *svcTally) add(mode string, lat time.Duration, polls int, err error) {
	s.attempts++
	switch {
	case rejected(err):
		s.rejected++
	case err != nil:
	case mode == "job":
		s.job = append(s.job, lat)
		s.polls += polls
	default:
		s.sync = append(s.sync, lat)
	}
}

// probe measures the daemons over the measured window: their CPU, and
// in a traced run their /metrics before and after.
type probe struct {
	b             *bench
	cpu0, cpu     []time.Duration
	before, after []promSamples
}

// startProbe is called right before the window opens.
func (b *bench) startProbe(ds daemons) (*probe, error) {
	p := &probe{b: b}
	if b.layers != nil {
		for _, d := range ds {
			s, err := scrape(d.url)
			if err != nil {
				return nil, err
			}
			p.before = append(p.before, s)
		}
	}
	for _, d := range ds {
		c, err := d.cpu()
		if err != nil {
			return nil, err
		}
		p.cpu0 = append(p.cpu0, c)
	}
	return p, nil
}

// finish is called right after the window closes. It adds the daemons'
// CPU over the window and their summed peak RSS to t.
func (p *probe) finish(t *tally, ds daemons) error {
	for i, d := range ds {
		c, err := d.cpu()
		if err != nil {
			return err
		}
		p.cpu = append(p.cpu, c-p.cpu0[i])
		t.cpu += c - p.cpu0[i]
	}
	rss, err := ds.peakRSS()
	if err != nil {
		return err
	}
	t.rss = append(t.rss, float64(rss))
	if p.b.layers != nil {
		for _, d := range ds {
			s, err := scrape(d.url)
			if err != nil {
				return err
			}
			p.after = append(p.after, s)
		}
	}
	return nil
}

// sum adds one series' window delta over every daemon.
func (p *probe) sum(series string) float64 {
	total := 0.0
	for i := range p.after {
		total += delta(p.before[i], p.after[i], series)
	}
	return total
}

// service sets the snapshot, service and runtime metrics from the
// window's /metrics deltas and the client's own timings.
func (p *probe) service(l *layerMetrics, t *tally) {
	ops := float64(len(t.lat))
	hits, misses := p.sum("deviantd_snapshot_unit_hits"), p.sum("deviantd_snapshot_unit_misses")
	reused, built := p.sum(`deviant_snapshot_graphs_total{outcome="reused"}`), p.sum(`deviant_snapshot_graphs_total{outcome="built"}`)
	l.set("snapshot.unit_hit_ratio", ratio(hits, hits+misses))
	l.set("snapshot.graph_hit_ratio", ratio(reused, reused+built))
	l.set("snapshot.evictions", p.sum("deviantd_snapshot_evictions"))

	var client time.Duration
	for _, d := range t.lat {
		client += d
	}
	analysis := delta(p.before[0], p.after[0], "deviantd_analysis_seconds_total")
	l.set("service.overhead_ms", ratio(ms(client)-analysis*1e3, ops))
	l.set("service.sync_p50_ms", ms(medianDuration(t.svc.sync)))
	l.set("service.job_p50_ms", ms(medianDuration(t.svc.job)))
	l.set("service.job_polls_per_op", ratio(float64(t.svc.polls), float64(len(t.svc.job))))
	l.set("service.rejected_frac", ratio(float64(t.svc.rejected), float64(t.svc.attempts)))
	l.set("runtime.gc_cycles_per_op", ratio(p.sum("go_gc_cycles_total"), ops))
	heap := 0.0
	for _, s := range p.after {
		heap += s["go_heap_alloc_bytes"]
	}
	l.set("runtime.heap_mb", heap/1e6)
}

// dist sets the fleet metrics: wire bytes and shard timings from the
// proxies, CPU shares from the probe (workers follow the coordinator in
// ds), retries from the coordinator's /metrics.
func (p *probe) dist(l *layerMetrics, t *tally, proxies []*proxy, tails []float64) {
	ops := float64(len(t.lat))
	var out, in int64
	var shards []time.Duration
	for _, px := range proxies {
		out += px.out.Load()
		in += px.in.Load()
		for _, c := range px.calls() {
			shards = append(shards, c.end.Sub(c.start))
		}
	}
	l.set("dist.wire_out_mb", ratio(float64(out)/1e6, ops))
	l.set("dist.wire_in_mb", ratio(float64(in)/1e6, ops))
	l.set("dist.shard_p50_ms", ms(medianDuration(shards)))
	l.set("dist.coord_tail_ms", medianFloat(tails))
	var workers, all time.Duration
	for i, c := range p.cpu {
		all += c
		if i > 0 {
			workers += c
		}
	}
	l.set("dist.worker_cpu_share", ratio(float64(workers), float64(all)))
	l.set("dist.retries", delta(p.before[0], p.after[0], "deviantd_fleet_shard_retries_total"))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceLayers reassembles deviant's pipeline from calls into its layers
// on the first ops' own inputs, timing each call, and sets the frontend,
// checker, report and trace metrics. Each pass's ranked reports must
// equal, byte for byte, what the system under test answered for the
// same tree in the window. With prime set (edit-warm's base tree), the
// passes reuse unchanged units' parse trees and graphs the way
// deviantd's snapshot store does, after an untimed pass over prime.
// trace.overhead_frac compares the passes' wall time with core's own
// untraced one-worker pipeline on the same inputs (warmed on prime the
// same way).
func (b *bench) traceLayers(t *tally, log *ops, prime map[string]string) error {
	n := tracePasses
	if len(log.recs) < n {
		n = len(log.recs)
	}
	var warm unitCache
	if prime != nil {
		warm = unitCache{}
		if _, err := runPipeline(nil, "prime", prime, warm); err != nil {
			return err
		}
	}
	lib, err := newLibrary(prime)
	if err != nil {
		return err
	}
	var passes []*passStats
	var traced, untraced []time.Duration
	for i := 0; i < n; i++ {
		files := log.recs[i].files()
		ps, err := runPipeline(b.rec, fmt.Sprintf("pipeline-%d", i), files, warm)
		if err != nil {
			return err
		}
		var mismatch error
		if digest(ps.reports) != log.recs[i].digest {
			mismatch = fmt.Errorf("traced pipeline pass %d differs from the %s answer for the same tree", i, log.recs[i].mode)
		}
		t.compared(mismatch)
		passes = append(passes, ps)
		traced = append(traced, ps.wall)
		d, err := lib.run(files)
		if err != nil {
			return err
		}
		untraced = append(untraced, d)
	}
	setPassMetrics(b.layers, passes)
	b.layers.set("trace.coverage_frac", coverage(b.rec.snapshot()))
	b.layers.set("trace.overhead_frac", ratio(float64(medianDuration(traced)), float64(medianDuration(untraced)))-1)
	return nil
}

// tracePasses is how many of the window's inputs the traced pipeline
// re-runs.
const tracePasses = 5
