package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"deviant/internal/cast"
	"deviant/internal/cfg"
	"deviant/internal/checkers/fail"
	"deviant/internal/checkers/freecheck"
	"deviant/internal/checkers/intr"
	"deviant/internal/checkers/iserr"
	"deviant/internal/checkers/lockvar"
	"deviant/internal/checkers/null"
	"deviant/internal/checkers/pairing"
	"deviant/internal/checkers/redundant"
	"deviant/internal/checkers/retconv"
	"deviant/internal/checkers/reverse"
	"deviant/internal/checkers/seccheck"
	"deviant/internal/checkers/userptr"
	"deviant/internal/core"
	"deviant/internal/cparse"
	"deviant/internal/cpp"
	"deviant/internal/csem"
	"deviant/internal/ctoken"
	"deviant/internal/engine"
	"deviant/internal/intern"
	"deviant/internal/latent"
	"deviant/internal/report"
	"deviant/internal/snapshot"
)

// cachedUnit is one unit's frontend output kept between pipeline passes:
// its parse tree and the graphs built from it.
type cachedUnit struct {
	file   *cast.File
	graphs map[string]*cfg.Graph
}

// unitCache holds cachedUnits by unit name and exact source. Headers
// never change between edit-warm passes, so the unit's own source is
// its whole input.
type unitCache map[string]*cachedUnit

func cacheKey(unit, src string) string { return unit + "\x00" + src }

// passStats is what one pipeline pass measured.
type passStats struct {
	wall    time.Duration
	dur     map[string]time.Duration // by span name
	alloc   map[string]uint64        // heap bytes allocated, by layer
	tokens  int
	graphs  int // graphs built (not reused)
	visits  int
	memo    int
	hits    int64 // token-cache file scans absorbed
	misses  int64 // files the token cache had to lex
	reports [][]byte
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runPipeline runs deviant's analysis over files by calling each layer
// in turn, in the order core runs them on one worker, with one span per
// layer call under an "op" span. The one reordering: every unit is
// preprocessed before any is parsed (core alternates per unit), so each
// frontend layer is one span; the outputs are the same. With warm
// non-nil, units whose source is cached skip the frontend and graph
// construction, and fresh units are added to the cache.
func runPipeline(rec *recorder, opID string, files map[string]string, warm unitCache) (*passStats, error) {
	const lane = 20
	ps := &passStats{dur: map[string]time.Duration{}, alloc: map[string]uint64{}}
	op := rec.start("op", opID, -1, lane)
	start := time.Now()
	stage := func(name, layer string, fn func()) {
		sp := rec.start(name, opID, op, lane)
		a0, t0 := heapAllocs(), time.Now()
		fn()
		ps.dur[name] += time.Since(t0)
		ps.alloc[layer] += heapAllocs() - a0
		rec.end(sp)
	}

	fs := cpp.MapFS(files)
	var units, others []string
	for name := range files {
		if strings.HasSuffix(name, ".c") {
			units = append(units, name)
		} else {
			others = append(others, name)
		}
	}
	sort.Strings(units)
	sort.Strings(others)
	parsed := make([]*cachedUnit, len(units))
	var fresh []int
	for i, u := range units {
		if c, ok := warm[cacheKey(u, files[u])]; ok {
			parsed[i] = c
		} else {
			fresh = append(fresh, i)
		}
	}

	// Frontend, for the units that are not cached: the scanner over the
	// sources the frontend will lex, then preprocess and parse.
	stage("ctoken.scan", "ctoken", func() {
		scan := func(name string) {
			ps.tokens += len(ctoken.NewScanner(name, files[name]).ScanAll())
		}
		for _, i := range fresh {
			scan(units[i])
		}
		if len(fresh) > 0 {
			for _, name := range others {
				scan(name)
			}
		}
	})
	opts := core.DefaultOptions()
	toks := make([][]ctoken.Token, len(units))
	var frontErr error
	stage("cpp.preprocess", "cpp", func() {
		cache := cpp.NewTokenCache()
		interner := intern.NewTable()
		for _, i := range fresh {
			pp := cpp.New(fs, opts.IncludeDirs...)
			pp.UseCache(cache)
			pp.SetInterner(interner)
			var err error
			if toks[i], err = pp.Process(units[i]); err != nil && frontErr == nil {
				frontErr = fmt.Errorf("preprocess %s: %v", units[i], pp.Errs())
			}
		}
		st := cache.Stats()
		ps.hits, ps.misses = st.Hits, st.Misses
	})
	stage("cparse.parse", "cparse", func() {
		for _, i := range fresh {
			f, errs := cparse.ParseFile(units[i], toks[i])
			if len(errs) > 0 && frontErr == nil {
				frontErr = fmt.Errorf("parse %s: %v", units[i], errs)
			}
			parsed[i] = &cachedUnit{file: f, graphs: map[string]*cfg.Graph{}}
			if warm != nil {
				warm[cacheKey(units[i], files[units[i]])] = parsed[i]
			}
		}
	})
	if frontErr != nil {
		return nil, frontErr
	}
	asts := make([]*cast.File, len(units))
	owner := map[*cast.FuncDecl]*cachedUnit{}
	for i, c := range parsed {
		asts[i] = c.file
		for _, d := range c.file.Decls {
			if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil {
				owner[fd] = c
			}
		}
	}

	var prog *csem.Program
	stage("csem.analyze", "csem", func() { prog = csem.Analyze(asts) })
	conv := latent.Default()
	names := prog.FuncNames()
	graphs := make(map[string]*cfg.Graph, len(names))
	stage("cfg.build", "cfg", func() {
		for _, name := range names {
			fd := prog.Funcs[name]
			c := owner[fd]
			if g, ok := c.graphs[name]; ok {
				graphs[name] = g
				continue
			}
			g := cfg.Build(fd, cfg.Options{NoReturn: conv.IsCrashRoutine})
			c.graphs[name] = g
			graphs[name] = g
			ps.graphs++
		}
	})

	// Checkers, in core's order. Engine checkers traverse a fork over
	// every function with a per-function scratch collector and merge
	// back, exactly as core's single-shard path does.
	col := report.NewCollector()
	traverse := func(name string, ch engine.Checker, merge func()) {
		stage("checkers."+name+".traverse", "checkers", func() {
			var runner engine.Runner
			shard, fcol := report.NewCollector(), report.NewCollector()
			eo := engine.Options{Memoize: opts.Memoize}
			for _, fn := range names {
				fcol.Reset()
				s := runner.Run(graphs[fn], ch, fcol, eo)
				ps.visits += s.Visits
				ps.memo += s.MemoHits
				shard.Merge(fcol)
			}
			merge()
			col.Merge(shard)
		})
	}
	derive := func(name string, fn func()) { stage("checkers."+name+".derive", "checkers", fn) }
	program := func(name string, run func(*report.Collector)) {
		stage("checkers."+name+".traverse", "checkers", func() {
			c := report.NewCollector()
			run(c)
			col.Merge(c)
		})
	}
	pathPairs := func(name string, fork func() func(*cfg.Graph), merge func()) {
		stage("checkers."+name+".traverse", "checkers", func() {
			add := fork()
			for _, fn := range names {
				add(graphs[fn])
			}
			merge()
		})
	}
	p0 := opts.P0

	nc := null.New(null.AllChecks())
	nf := nc.Fork()
	traverse("null", nf, func() { nc.Merge(nf) })
	derive("null", func() { nc.Finish(col) })

	fc := freecheck.New(conv)
	ff := fc.Fork()
	traverse("free", ff, func() { fc.Merge(ff) })

	program("redundant", func(c *report.Collector) { redundant.New(prog).Run(c) })
	program("retconv", func(c *report.Collector) {
		ch := retconv.New(prog, conv)
		ch.SetP0(p0)
		ch.Run(c)
	})
	program("userptr", func(c *report.Collector) { userptr.New(prog, conv).Run(c) })

	ic := iserr.New(conv)
	ic.SetP0(p0)
	icf := ic.Fork()
	traverse("iserr", icf, func() { ic.Merge(icf) })
	derive("iserr", func() { ic.Finish(col); ic.Ranked() })

	fl := fail.New(conv)
	fl.SetP0(p0)
	flf := fl.Fork()
	traverse("fail", flf, func() { fl.Merge(flf) })
	derive("fail", func() { fl.Finish(col); fl.Ranked(); fl.InverseRanked() })

	lv := lockvar.New(prog, conv)
	lv.SetP0(p0)
	lvf := lv.Fork()
	traverse("lockvar", lvf, func() { lv.Merge(lvf) })
	derive("lockvar", func() { lv.Finish(col); lv.Bindings() })

	pc := pairing.New(conv, pairing.DefaultLimits())
	var pcf *pairing.Checker
	pathPairs("pairing", func() func(*cfg.Graph) { pcf = pc.Fork(); return pcf.AddFunction }, func() { pc.Merge(pcf) })
	derive("pairing", func() { pc.Finish(col, p0, opts.MinPairExamples, opts.MinPairScore) })

	it := intr.New(conv)
	it.SetP0(p0)
	itf := it.Fork()
	traverse("intr", itf, func() { it.Merge(itf) })
	derive("intr", func() { it.Finish(col); it.Ranked() })

	sc := seccheck.New(nil)
	sc.SetP0(p0)
	scf := sc.Fork()
	traverse("seccheck", scf, func() { sc.Merge(scf) })
	derive("seccheck", func() { sc.Finish(col); sc.Ranked() })

	rv := reverse.New(conv, reverse.DefaultLimits())
	var rvf *reverse.Checker
	pathPairs("reverse", func() func(*cfg.Graph) { rvf = rv.Fork(); return rvf.AddFunction }, func() { rv.Merge(rvf) })
	derive("reverse", func() { rv.Finish(col, p0, opts.MinPairExamples, opts.MinPairScore) })

	var ranked []report.Report
	stage("report.fingerprint", "report", func() { col.SetFingerprints(report.NewFingerprinter(asts)) })
	stage("report.rank", "report", func() { ranked = col.Ranked() })
	stage("report.render", "report", func() { ps.reports = render(ranked) })
	ps.wall = time.Since(start)
	rec.end(op)
	return ps, nil
}

// setPassMetrics sets the frontend, checker and report metrics to their
// medians over the traced passes.
func setPassMetrics(l *layerMetrics, passes []*passStats) {
	med := func(f func(*passStats) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return medianFloat(xs)
	}
	spanMS := func(span string) func(*passStats) float64 {
		return func(p *passStats) float64 { return ms(p.dur[span]) }
	}
	allocMB := func(layer string) func(*passStats) float64 {
		return func(p *passStats) float64 { return float64(p.alloc[layer]) / 1e6 }
	}
	for _, name := range []string{"ctoken.scan", "cpp.preprocess", "cparse.parse", "csem.analyze", "cfg.build", "report.rank", "report.fingerprint", "report.render"} {
		l.set(name+"_ms", med(spanMS(name)))
	}
	for _, c := range checkerNames {
		l.set("checkers."+c+".traverse_ms", med(spanMS("checkers."+c+".traverse")))
		l.set("checkers."+c+".derive_ms", med(spanMS("checkers."+c+".derive")))
	}
	for _, layer := range []string{"cpp", "cparse", "cfg", "checkers"} {
		l.set(layer+".alloc_mb", med(allocMB(layer)))
	}
	l.set("ctoken.tokens", med(func(p *passStats) float64 { return float64(p.tokens) }))
	l.set("cpp.cache_hit_ratio", med(func(p *passStats) float64 { return ratio(float64(p.hits), float64(p.hits+p.misses)) }))
	l.set("cfg.graphs", med(func(p *passStats) float64 { return float64(p.graphs) }))
	l.set("engine.visits", med(func(p *passStats) float64 { return float64(p.visits) }))
	l.set("engine.memo_hit_ratio", med(func(p *passStats) float64 { return ratio(float64(p.memo), float64(p.visits)) }))
	l.set("report.reports", med(func(p *passStats) float64 { return float64(len(p.reports)) }))
}

// library is the untraced program: core's own pipeline on one worker,
// with a snapshot store primed on the base tree when the workload is
// warm.
type library struct{ a *core.Analyzer }

func newLibrary(prime map[string]string) (*library, error) {
	opts := core.DefaultOptions()
	opts.Workers = 1
	if prime != nil {
		opts.Snapshot = snapshot.NewStore(0)
	}
	l := &library{core.New(opts, nil)}
	if prime != nil {
		if _, err := l.a.AnalyzeSources(prime); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// run times one untraced analysis of files.
func (l *library) run(files map[string]string) (time.Duration, error) {
	t0 := time.Now()
	_, err := l.a.AnalyzeSources(files)
	return time.Since(t0), err
}
