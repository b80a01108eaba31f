package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts the result line carries exactly the named
// metrics, each with its unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not printed", label, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

// buildPrograms compiles deviant and deviantd from this checkout.
func buildPrograms(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/deviant", "./cmd/deviantd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestEveryMetricPrintedWithUnit runs the serve-mixed workload (six-module
// trees) for one second, untraced and traced, through the real deviantd,
// and checks the last output line names every metric of BENCHMARK.json
// with its unit, and that every workload BENCHMARK.json names exists.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench implements %d", len(spec.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	bin := buildPrograms(t)
	for _, traced := range []string{"0", "1"} {
		var out bytes.Buffer
		code := run([]string{"-bin", bin, "-work", t.TempDir(), "--workload", "serve-mixed",
			"--seed", "7", "--seconds", "1", "--trace", traced}, &out)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", traced, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", traced, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: result %+v", traced, res)
		}
		want := endToEnd
		if traced == "1" {
			want = perLayer
			if c := res.Metrics["trace.coverage_frac"].Value; c < 0.95 {
				t.Errorf("trace coverage %.3f, want at least 0.95", c)
			}
		}
		checkMetrics(t, "trace "+traced, res.Metrics, want)
	}
}

// TestTreeGenerationDeterministic: one seed gives byte-identical trees
// on disk (ground truth included) and byte-identical request bodies;
// another seed gives another tree.
func TestTreeGenerationDeterministic(t *testing.T) {
	const seed = 42
	var dirs []string
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		c := smallTree(treeSeed(seed, streamOps, 3))
		if _, err := writeTree(c, dir); err != nil {
			t.Fatal(err)
		}
		body, err := requestBody(newEdits(seed).sources(5))
		if err != nil {
			t.Fatal(err)
		}
		dirs, bodies = append(dirs, dir), append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("request bodies differ for one seed")
	}
	files := 0
	err := filepath.WalkDir(dirs[0], func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dirs[0], path)
		a, _ := os.ReadFile(path)
		b, err := os.ReadFile(filepath.Join(dirs[1], rel))
		if err != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs between two generations of one seed", rel)
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 7 {
		t.Errorf("only %d files generated", files)
	}
	if _, err := os.Stat(filepath.Join(dirs[0], "GROUND_TRUTH.tsv")); err != nil {
		t.Error("no ground-truth manifest written")
	}
	this, _ := requestBody(smallTree(treeSeed(seed, streamOps, 3)).Files)
	other, _ := requestBody(smallTree(treeSeed(seed+1, streamOps, 3)).Files)
	if bytes.Equal(this, other) {
		t.Error("two seeds generated the same tree")
	}
	a, _ := requestBody(newEdits(seed + 1).sources(5))
	if bytes.Equal(bodies[0], a) {
		t.Error("two seeds edited the same unit first")
	}
}

// TestTamperedReportCaught proves the output checks can fail: a report
// changed in any way breaks byte identity, a mis-ranked stream fails
// validation, and a run whose sampled answer was tampered is not
// correct.
func TestTamperedReportCaught(t *testing.T) {
	c := smallTree(treeSeed(9, streamOps, 0))
	want, err := referenceReports(c.Files)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("tiny tree produced no reports")
	}
	if err := sameReports("clean", want, want); err != nil {
		t.Fatalf("identical answers compared unequal: %v", err)
	}
	tampered := make([][]byte, len(want))
	copy(tampered, want)
	tampered[0] = bytes.Replace(want[0], []byte(`"line":`), []byte(`"line":1`), 1)
	if err := sameReports("tampered", tampered, want); err == nil {
		t.Error("a changed line number passed the byte-identity check")
	}
	if digest(tampered) == digest(want) {
		t.Error("a changed report kept its digest")
	}

	out := &output{units: len(c.Units), count: -1, reports: [][]byte{want[0], want[0]}}
	if _, err := out.validate(len(c.Units)); err == nil {
		t.Error("two reports ranked 1 passed validation")
	}
	out = &output{units: len(c.Units), count: -1, reports: want, parseErrors: 1}
	if _, err := out.validate(len(c.Units)); err == nil {
		t.Error("an answer with parse errors passed validation")
	}

	tl := &tally{}
	tl.ok(time.Millisecond)
	tl.setups = []time.Duration{time.Millisecond}
	log := &ops{}
	log.add(opRecord{mode: "sync", files: func() map[string]string { return c.Files }, digest: digest(tampered)})
	(&bench{}).recheck(tl, log, referenceReports)
	if tl.correct() || tl.checks != 1 {
		t.Errorf("tampered answer: correct=%v after %d checks", tl.correct(), tl.checks)
	}
}

// countingListener counts the bytes its connections read and write.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

type countedConn struct {
	net.Conn
	l *countingListener
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.written.Add(int64(n))
	return n, err
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{c, l}, nil
}

// TestProxyCountsBytesExactly sends a known payload through the proxy
// to a server that counts its own traffic: the proxy's counts must
// equal the server's, byte for byte, and the payload must be in them.
func TestProxyCountsBytesExactly(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	reply := bytes.Repeat([]byte("z"), 100000)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		if !bytes.Equal(got, payload) {
			t.Error("payload corrupted by the proxy")
		}
		w.Write(reply)
	}))
	ln := &countingListener{Listener: srv.Listener}
	srv.Listener = ln
	srv.Start()

	p, err := newProxy(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, body, err := httpPost(p.url+"/v1/shard", "", "req-1", payload)
	if err != nil || code != http.StatusOK || !bytes.Equal(body, reply) {
		t.Fatalf("through the proxy: status %d, %d bytes, %v", code, len(body), err)
	}
	p.close()
	srv.Close() // waits for the server's side of every exchange
	if p.out.Load() != ln.read.Load() || p.in.Load() != ln.written.Load() {
		t.Errorf("proxy counted %d out / %d in, server read %d / wrote %d",
			p.out.Load(), p.in.Load(), ln.read.Load(), ln.written.Load())
	}
	if p.out.Load() < int64(len(payload)) || p.in.Load() < int64(len(reply)) {
		t.Errorf("counts %d/%d miss the payload", p.out.Load(), p.in.Load())
	}
	if n := len(p.calls()); n != 1 {
		t.Errorf("%d shard calls recorded, want 1", n)
	}
}

// TestPredictionsNameKnownMetrics keeps predictions.json in step with
// BENCHMARK.json: every metric and workload it names exists, and every
// per-layer metric has a prediction.
func TestPredictionsNameKnownMetrics(t *testing.T) {
	spec := readSpec(t)
	raw, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Predictions []struct {
			Layer          string   `json:"layer"`
			PerLayer       []string `json:"per_layer"`
			EndToEnd       []string `json:"end_to_end"`
			MovesOn        []string `json:"moves_on"`
			NoChangeOn     []string `json:"no_change_on"`
			LargestShareOn string   `json:"largest_share_on"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatal(err)
	}
	layer, e2e, wl := map[string]bool{}, map[string]bool{}, map[string]bool{"": true}
	for _, m := range spec.PerLayer {
		layer[m.Name] = false
	}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range spec.Workloads {
		wl[w.Name] = true
	}
	for _, p := range table.Predictions {
		var names []string
		for _, n := range p.PerLayer {
			if strings.Contains(n, "<name>") {
				for _, c := range checkerNames {
					names = append(names, strings.ReplaceAll(n, "<name>", c))
				}
				continue
			}
			names = append(names, n)
		}
		for _, n := range names {
			if _, ok := layer[n]; !ok {
				t.Errorf("%s: unknown per-layer metric %s", p.Layer, n)
			}
			layer[n] = true
		}
		for _, n := range p.EndToEnd {
			if !e2e[n] {
				t.Errorf("%s: unknown end-to-end metric %s", p.Layer, n)
			}
		}
		for _, w := range append(append([]string{p.LargestShareOn}, p.MovesOn...), p.NoChangeOn...) {
			if !wl[w] {
				t.Errorf("%s: unknown workload %s", p.Layer, w)
			}
		}
	}
	for n, seen := range layer {
		if !seen {
			t.Errorf("per-layer metric %s has no prediction", n)
		}
	}
}
