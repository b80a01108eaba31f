package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"deviant/internal/corpus"
)

// setupRuns is how many times each run starts the system under test
// from nothing; setup_s is the median.
const setupRuns = 5

// jobPoll is the job path's status-poll interval.
const jobPoll = 2 * time.Millisecond

// opRecord remembers one measured op well enough to re-check it after
// the window: how to rebuild its input and what its answer was.
type opRecord struct {
	mode   string // "cli", "sync", "job" or "fleet"
	files  func() map[string]string
	digest [32]byte
}

// ops is the window's op log, in completion order.
type ops struct {
	mu   sync.Mutex
	recs []opRecord
}

func (o *ops) add(r opRecord) {
	o.mu.Lock()
	o.recs = append(o.recs, r)
	o.mu.Unlock()
}

// samples picks the ops re-checked after the window: the first, middle
// and last op of each mode.
func (o *ops) samples() []opRecord {
	byMode := map[string][]opRecord{}
	var modes []string
	for _, r := range o.recs {
		if byMode[r.mode] == nil {
			modes = append(modes, r.mode)
		}
		byMode[r.mode] = append(byMode[r.mode], r)
	}
	var out []opRecord
	for _, m := range modes {
		rs := byMode[m]
		seen := map[int]bool{}
		for _, i := range []int{0, len(rs) / 2, len(rs) - 1} {
			if !seen[i] {
				seen[i] = true
				out = append(out, rs[i])
			}
		}
	}
	return out
}

// closedLoop runs op on each client goroutine, each sending its next
// request only after the previous reply, until the window closes. It
// returns the window's wall time, which ends with the last reply.
func closedLoop(b *bench, clients int, op func(client, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(b.window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// cliReference runs the CLI over an in-memory tree written to disk and
// returns its checked reports: the reference every daemon path must
// match byte for byte.
func (b *bench) cliReference(files map[string]string) ([][]byte, error) {
	dir, err := os.MkdirTemp(b.work, "ref-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := writeSources(files, dir); err != nil {
		return nil, err
	}
	run, err := runCLI(b.bin, dir)
	if err != nil {
		return nil, err
	}
	out, err := parseCLI(run.stdout)
	if err != nil {
		return nil, err
	}
	if _, err := out.validate(countUnits(files)); err != nil {
		return nil, fmt.Errorf("CLI reference: %w", err)
	}
	return out.reports, nil
}

// recheck compares sampled window ops against reference answers for
// the same inputs, computed after the window so they cost the measured
// ops nothing.
func (b *bench) recheck(t *tally, log *ops, reference func(map[string]string) ([][]byte, error)) {
	for _, r := range log.samples() {
		want, err := reference(r.files())
		if err != nil {
			t.problem("reference for a %s op: %v", r.mode, err)
			continue
		}
		if digest(want) != r.digest {
			t.compared(fmt.Errorf("%s op answer differs from the reference for the same tree", r.mode))
			continue
		}
		t.compared(nil)
	}
}

func countUnits(files map[string]string) int {
	n := 0
	for name := range files {
		if strings.HasSuffix(name, ".c") {
			n++
		}
	}
	return n
}

// checkAnswer validates an answer and scores it against bugs; an error
// fails the op.
func checkAnswer(t *tally, out *output, units int, bugs []corpus.Bug) error {
	ranked, err := out.validate(units)
	if err != nil {
		return err
	}
	t.with(func(t *tally) { t.q.score(bugs, ranked) })
	return nil
}

// runBatchCold is the paper's batch scan: one client runs `deviant
// -json` over a fresh linux247-spec tree on disk, one process at a
// time. Sampled outputs are re-checked against the library pipeline
// run in this process on two workers.
func runBatchCold(b *bench) (*tally, error) {
	t := &tally{}
	dir := filepath.Join(b.work, "tree")
	cliOp := func(c *corpus.Corpus, opID string, lane int) (cliRun, *output, []corpus.Bug, error) {
		bugs, err := writeTree(c, dir)
		if err != nil {
			return cliRun{}, nil, nil, err
		}
		defer os.RemoveAll(dir)
		op := b.rec.start("op", opID, -1, lane)
		sp := b.rec.start("cli.run", opID, op, lane)
		run, err := runCLI(b.bin, dir)
		b.rec.end(sp)
		b.rec.end(op)
		if err != nil {
			return run, nil, nil, err
		}
		out, err := parseCLI(run.stdout)
		return run, out, bugs, err
	}

	for r := 0; r < setupRuns; r++ {
		c := linuxTree(treeSeed(b.seed, streamSetup, r))
		run, out, _, err := cliOp(c, "setup-"+strconv.Itoa(r), 1)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t.setups = append(t.setups, run.wall)
		if _, err := out.validate(len(c.Units)); err != nil {
			t.problem("set-up answer: %v", err)
		}
		if r == 0 {
			want, err := referenceReports(c.Files)
			if err != nil {
				return nil, err
			}
			t.compared(sameReports("set-up CLI vs library", out.reports, want))
		}
	}

	log := &ops{}
	t.window = closedLoop(b, 1, func(_, i int) {
		seed := treeSeed(b.seed, streamOps, i)
		c := linuxTree(seed)
		run, out, bugs, err := cliOp(c, "op-"+strconv.Itoa(i), 0)
		if err != nil {
			t.fail("op %d: %v", i, err)
			return
		}
		if err := checkAnswer(t, out, len(c.Units), bugs); err != nil {
			t.fail("op %d: %v", i, err)
			return
		}
		t.ok(run.wall)
		t.with(func(t *tally) {
			t.cpu += run.cpu
			t.rss = append(t.rss, float64(run.maxRSS))
		})
		log.add(opRecord{mode: "cli", files: func() map[string]string { return linuxTree(seed).Files }, digest: digest(out.reports)})
	})
	b.recheck(t, log, referenceReports)
	if b.layers != nil {
		if err := b.traceLayers(t, log, nil); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// runEditWarm keeps one standalone deviantd primed with the linux247
// spec tree and has one client re-POST that tree with one unit edited
// per request, round robin in a seeded order: snapshot hits bypass the
// frontend and CFG. Sampled answers are re-checked against a cold CLI
// run of the same edited tree.
func runEditWarm(b *bench) (*tally, error) {
	t := &tally{}
	ed := newEdits(b.seed)
	base := ed.base
	baseDir := filepath.Join(b.work, "base")
	bugs, err := writeTree(base, baseDir)
	if err != nil {
		return nil, err
	}
	run, err := runCLI(b.bin, baseDir)
	if err != nil {
		return nil, err
	}
	ref, err := parseCLI(run.stdout)
	if err != nil {
		return nil, err
	}
	prime, err := requestBody(base.Files)
	if err != nil {
		return nil, err
	}

	start := func() (daemons, error) {
		d, err := startDaemon(b, "deviantd")
		if err != nil {
			return nil, err
		}
		return daemons{d}, nil
	}
	ds, err := b.setupDaemons(t, start, prime, len(base.Units), ref.reports)
	if err != nil {
		return nil, err
	}
	defer ds.stop()
	url := ds[0].url

	probe, err := b.startProbe(ds)
	if err != nil {
		return nil, err
	}
	log := &ops{}
	t.window = closedLoop(b, 1, func(_, i int) {
		files := ed.sources(i)
		body, err := requestBody(files)
		if err != nil {
			t.fail("op %d: %v", i, err)
			return
		}
		opID := "op-" + strconv.Itoa(i)
		lat, out, err := b.syncOp(url, "", body, opID, 0)
		t.with(func(t *tally) { t.svc.add("sync", lat, 0, err) })
		if err == nil {
			err = checkAnswer(t, out, len(base.Units), bugs)
		}
		if err != nil {
			t.fail("op %d: %v", i, err)
			return
		}
		t.ok(lat)
		log.add(opRecord{mode: "sync", files: func() map[string]string { return ed.sources(i) }, digest: digest(out.reports)})
	})
	if err := probe.finish(t, ds); err != nil {
		return nil, err
	}
	b.recheck(t, log, b.cliReference)
	if b.layers != nil {
		if err := b.traceLayers(t, log, base.Files); err != nil {
			return nil, err
		}
		probe.service(b.layers, t)
	}
	return t, nil
}

// runServeMixed runs one standalone deviantd against two clients under
// two tenants. Every request is a fresh six-module tree; requests
// alternate between sync POST /v1/analyze and the job path (submit,
// poll, fetch the result). Every request misses the snapshot store and
// inserts into it. Sampled answers of both paths are re-checked against
// the CLI.
func runServeMixed(b *bench) (*tally, error) {
	t := &tally{}
	tenants := []string{"tenant-a", "tenant-b"}

	// The first set-up tree also goes through the job path and the CLI:
	// sync, job and CLI answers for one tree must be byte-identical.
	firstSeed := treeSeed(b.seed, streamSetup, 0)
	first := smallTree(firstSeed)
	firstBody, err := requestBody(freshSources(first, firstSeed))
	if err != nil {
		return nil, err
	}
	ref, err := b.cliReference(freshSources(first, firstSeed))
	if err != nil {
		return nil, err
	}
	start := func() (daemons, error) {
		d, err := startDaemon(b, "deviantd")
		if err != nil {
			return nil, err
		}
		return daemons{d}, nil
	}
	ds, err := b.setupDaemons(t, start, firstBody, len(first.Units), ref)
	if err != nil {
		return nil, err
	}
	defer ds.stop()
	url := ds[0].url
	if _, out, _, err := b.jobOp(url, tenants[0], firstBody, "setup-job", 1); err != nil {
		t.problem("set-up job: %v", err)
	} else {
		t.compared(sameReports("set-up job vs CLI", out.reports, ref))
	}

	probe, err := b.startProbe(ds)
	if err != nil {
		return nil, err
	}
	log := &ops{}
	t.window = closedLoop(b, len(tenants), func(c, i int) {
		seed := treeSeed(b.seed, streamOps, c<<24|i)
		tree := smallTree(seed)
		body, err := requestBody(freshSources(tree, seed))
		if err != nil {
			t.fail("client %d op %d: %v", c, i, err)
			return
		}
		opID := fmt.Sprintf("op-%d-%d", c, i)
		var (
			lat   time.Duration
			out   *output
			polls int
			mode  = "sync"
		)
		if (c+i)%2 == 1 {
			mode = "job"
			lat, out, polls, err = b.jobOp(url, tenants[c], body, opID, c)
		} else {
			lat, out, err = b.syncOp(url, tenants[c], body, opID, c)
		}
		t.with(func(t *tally) { t.svc.add(mode, lat, polls, err) })
		if err == nil {
			err = checkAnswer(t, out, len(tree.Units), tree.Bugs)
		}
		if err != nil {
			t.fail("client %d op %d (%s): %v", c, i, mode, err)
			return
		}
		t.ok(lat)
		log.add(opRecord{mode: mode, files: func() map[string]string { return freshSources(smallTree(seed), seed) }, digest: digest(out.reports)})
	})
	if err := probe.finish(t, ds); err != nil {
		return nil, err
	}
	b.recheck(t, log, b.cliReference)
	if b.layers != nil {
		if err := b.traceLayers(t, log, nil); err != nil {
			return nil, err
		}
		probe.service(b.layers, t)
	}
	return t, nil
}

// runFleetScatter runs a coordinator and two workers on loopback; one
// client sends a fresh linux247-spec tree per request. In a traced run
// a byte-counting proxy sits in front of each worker. Sampled answers
// are re-checked against the CLI.
func runFleetScatter(b *bench) (*tally, error) {
	t := &tally{}
	firstSeed := treeSeed(b.seed, streamSetup, 0)
	first := linuxTree(firstSeed)
	firstBody, err := requestBody(freshSources(first, firstSeed))
	if err != nil {
		return nil, err
	}
	ref, err := b.cliReference(freshSources(first, firstSeed))
	if err != nil {
		return nil, err
	}
	var proxies []*proxy
	start := func() (daemons, error) {
		for _, p := range proxies {
			p.close()
		}
		proxies = nil
		var ds daemons
		var urls []string
		for w := 1; w <= 2; w++ {
			d, err := startDaemon(b, fmt.Sprintf("worker%d", w), "-role", "worker")
			if err != nil {
				ds.stop()
				return nil, err
			}
			ds = append(ds, d)
			u := d.url
			if b.layers != nil {
				p, err := newProxy(d.url, b.rec)
				if err != nil {
					ds.stop()
					return nil, err
				}
				proxies = append(proxies, p)
				u = p.url
			}
			urls = append(urls, u)
		}
		coord, err := startDaemon(b, "coordinator", "-role", "coordinator", "-workers-list", strings.Join(urls, ","))
		if err != nil {
			ds.stop()
			return nil, err
		}
		// The coordinator goes first: its URL is the one clients use.
		return append(daemons{coord}, ds...), nil
	}
	ds, err := b.setupDaemons(t, start, firstBody, len(first.Units), ref)
	defer func() {
		for _, p := range proxies {
			p.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	defer ds.stop()
	url := ds[0].url

	probe, err := b.startProbe(ds)
	if err != nil {
		return nil, err
	}
	for _, p := range proxies {
		p.reset()
	}
	log := &ops{}
	var tails []float64
	t.window = closedLoop(b, 1, func(_, i int) {
		seed := treeSeed(b.seed, streamOps, i)
		tree := linuxTree(seed)
		body, err := requestBody(freshSources(tree, seed))
		if err != nil {
			t.fail("op %d: %v", i, err)
			return
		}
		opID := "op-" + strconv.Itoa(i)
		sent := time.Now()
		lat, out, err := b.syncOp(url, "", body, opID, 0)
		t.with(func(t *tally) { t.svc.add("sync", lat, 0, err) })
		if err == nil {
			err = checkAnswer(t, out, len(tree.Units), tree.Bugs)
		}
		if err != nil {
			t.fail("op %d: %v", i, err)
			return
		}
		t.ok(lat)
		if last := lastReply(proxies, sent); !last.IsZero() {
			tails = append(tails, float64(sent.Add(lat).Sub(last))/float64(time.Millisecond))
		}
		log.add(opRecord{mode: "fleet", files: func() map[string]string { return freshSources(linuxTree(seed), seed) }, digest: digest(out.reports)})
	})
	if err := probe.finish(t, ds); err != nil {
		return nil, err
	}
	b.recheck(t, log, b.cliReference)
	if b.layers != nil {
		if err := b.traceLayers(t, log, nil); err != nil {
			return nil, err
		}
		probe.service(b.layers, t)
		probe.dist(b.layers, t, proxies, tails)
	}
	return t, nil
}

// setupDaemons starts the system under test setupRuns times from
// nothing, timing each start up to its first answer to body, and keeps
// the last instance running. Each first answer must match want.
func (b *bench) setupDaemons(t *tally, start func() (daemons, error), body []byte, units int, want [][]byte) (daemons, error) {
	var ds daemons
	for r := 0; r < setupRuns; r++ {
		ds.stop()
		t0 := time.Now()
		var err error
		if ds, err = start(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		code, resp, err := httpPost(ds[0].url+"/v1/analyze", "", "", body)
		elapsed := time.Since(t0)
		if err != nil || code != http.StatusOK {
			ds.stop()
			return nil, fmt.Errorf("set-up: first analyze: status %d: %v %s", code, err, resp)
		}
		t.setups = append(t.setups, elapsed)
		out, err := parseResponse(resp)
		if err == nil {
			_, err = out.validate(units)
		}
		if err != nil {
			t.problem("set-up answer: %v", err)
			continue
		}
		if r == 0 {
			t.compared(sameReports("set-up answer vs CLI", out.reports, want))
		}
	}
	return ds, nil
}

// syncOp is one POST /v1/analyze.
func (b *bench) syncOp(url, tenant string, body []byte, opID string, lane int) (time.Duration, *output, error) {
	op := b.rec.start("op", opID, -1, lane)
	sp := b.rec.start("service.sync", opID, op, lane)
	t0 := time.Now()
	code, resp, err := httpPost(url+"/v1/analyze", tenant, opID, body)
	lat := time.Since(t0)
	b.rec.end(sp)
	b.rec.end(op)
	if err != nil {
		return lat, nil, err
	}
	if code != http.StatusOK {
		return lat, nil, &statusError{code, resp}
	}
	out, err := parseResponse(resp)
	return lat, out, err
}

// jobOp is one job: submit, poll its status until it is done, fetch the
// result. The latency covers all three.
func (b *bench) jobOp(url, tenant string, body []byte, opID string, lane int) (time.Duration, *output, int, error) {
	op := b.rec.start("op", opID, -1, lane)
	defer b.rec.end(op)
	t0 := time.Now()
	sp := b.rec.start("service.submit", opID, op, lane)
	code, resp, err := httpPost(url+"/v1/jobs", tenant, opID, body)
	b.rec.end(sp)
	if err != nil {
		return time.Since(t0), nil, 0, err
	}
	if code != http.StatusAccepted {
		return time.Since(t0), nil, 0, &statusError{code, resp}
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return time.Since(t0), nil, 0, err
	}
	polls := 0
	sp = b.rec.start("service.poll", opID, op, lane)
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			b.rec.end(sp)
			return time.Since(t0), nil, polls, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(jobPoll)
		code, resp, err = httpGet(url + "/v1/jobs/" + st.ID)
		polls++
		if err == nil && code != http.StatusOK {
			err = &statusError{code, resp}
		}
		if err == nil {
			err = json.Unmarshal(resp, &st)
		}
		if err != nil {
			b.rec.end(sp)
			return time.Since(t0), nil, polls, err
		}
	}
	b.rec.end(sp)
	sp = b.rec.start("service.result", opID, op, lane)
	code, resp, err = httpGet(url + "/v1/jobs/" + st.ID + "/result")
	b.rec.end(sp)
	lat := time.Since(t0)
	if err != nil {
		return lat, nil, polls, err
	}
	if code != http.StatusOK {
		return lat, nil, polls, &statusError{code, resp}
	}
	out, err := parseResponse(resp)
	return lat, out, polls, err
}

// statusError is a non-2xx reply.
type statusError struct {
	code int
	body []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, strings.TrimSpace(string(e.body)))
}

// rejected reports whether err is an admission refusal (429 or 503).
func rejected(err error) bool {
	se, ok := err.(*statusError)
	return ok && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable)
}
