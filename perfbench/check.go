package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"deviant/internal/core"
	"deviant/internal/corpus"
	"deviant/internal/ctoken"
	"deviant/internal/report"
)

// output is one analysis answer from any execution path: the CLI's
// -json stream, a sync /v1/analyze response, a job result or a fleet
// result. reports keeps each ranked report's JSON bytes exactly as the
// program wrote them, so two paths can be compared byte for byte.
type output struct {
	units       int
	parseErrors int
	degraded    bool
	count       int // the "reports" count the CLI summary announces (-1 if absent)
	reports     [][]byte
}

// parseCLI reads `deviant -json`: a summary line, then one report per
// line (quarantine records follow only on degraded runs).
func parseCLI(stdout []byte) (*output, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("empty CLI output")
	}
	var sum struct {
		Units       int  `json:"units"`
		ParseErrors int  `json:"parse_errors"`
		Reports     int  `json:"reports"`
		Degraded    bool `json:"degraded"`
	}
	if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
		return nil, fmt.Errorf("CLI summary: %w", err)
	}
	o := &output{units: sum.Units, parseErrors: sum.ParseErrors, degraded: sum.Degraded, count: sum.Reports}
	for sc.Scan() {
		o.reports = append(o.reports, append([]byte(nil), sc.Bytes()...))
	}
	return o, sc.Err()
}

// parseResponse reads a deviantd analyze response (sync, job or fleet).
func parseResponse(body []byte) (*output, error) {
	var resp struct {
		Units       int               `json:"units"`
		ParseErrors int               `json:"parse_errors"`
		Degraded    bool              `json:"degraded"`
		Reports     []json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("analyze response: %w", err)
	}
	o := &output{units: resp.Units, parseErrors: resp.ParseErrors, degraded: resp.Degraded, count: -1}
	for _, r := range resp.Reports {
		o.reports = append(o.reports, []byte(r))
	}
	return o, nil
}

// render is the reference rendering of an in-process result: every
// ranked report encoded the way the CLI and deviantd encode it.
func render(ranked []report.Report) [][]byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	out := make([][]byte, 0, len(ranked))
	for i := range ranked {
		buf.Reset()
		if err := enc.Encode(report.ToJSON(i+1, &ranked[i])); err != nil {
			panic(err) // a JSONReport of plain fields always encodes
		}
		out = append(out, bytes.TrimSuffix(append([]byte(nil), buf.Bytes()...), []byte("\n")))
	}
	return out
}

// validate checks the answer's shape for a tree of units translation
// units: everything parsed, nothing quarantined, ranks 1..n in order,
// every report located and fingerprinted. It returns the reports decoded
// for scoring.
func (o *output) validate(units int) ([]report.Report, error) {
	switch {
	case o.units != units:
		return nil, fmt.Errorf("analyzed %d units, sent %d", o.units, units)
	case o.parseErrors != 0:
		return nil, fmt.Errorf("%d parse errors", o.parseErrors)
	case o.degraded:
		return nil, fmt.Errorf("degraded run")
	case o.count >= 0 && o.count != len(o.reports):
		return nil, fmt.Errorf("summary announces %d reports, stream has %d", o.count, len(o.reports))
	case len(o.reports) == 0:
		return nil, fmt.Errorf("no reports")
	}
	reps := make([]report.Report, len(o.reports))
	for i, raw := range o.reports {
		var jr report.JSONReport
		if err := json.Unmarshal(raw, &jr); err != nil {
			return nil, fmt.Errorf("report %d: %w", i+1, err)
		}
		if jr.Rank != i+1 || jr.File == "" || jr.Line <= 0 || jr.Checker == "" || !strings.HasPrefix(jr.Fingerprint, "v1:") {
			return nil, fmt.Errorf("report %d malformed: %s", i+1, raw)
		}
		reps[i] = report.Report{Checker: jr.Checker, Pos: ctoken.Pos{File: jr.File, Line: jr.Line, Col: jr.Col}}
	}
	return reps, nil
}

// digest identifies an answer's ranked reports byte for byte.
func digest(reports [][]byte) [32]byte {
	return sha256.Sum256(bytes.Join(reports, []byte{'\n'}))
}

// sameReports compares two answers byte for byte and names the first
// difference.
func sameReports(what string, got, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d reports, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("%s: report %d differs:\n got  %s\n want %s", what, i+1, got[i], want[i])
		}
	}
	return nil
}

// referenceReports is the library path's answer for a tree: the whole
// pipeline in this process on two workers (the processes under test run
// one), rendered like the CLI's.
func referenceReports(files map[string]string) ([][]byte, error) {
	opts := core.DefaultOptions()
	opts.Workers = 2
	res, err := core.New(opts, nil).AnalyzeSources(files)
	if err != nil {
		return nil, err
	}
	return render(res.Reports.Ranked()), nil
}

// bugKinds are the seeded bug kinds, one per checker the corpus targets.
var bugKinds = []corpus.BugKind{
	corpus.CheckThenUse, corpus.UseThenCheck, corpus.RedundantCheck,
	corpus.UserPtrDeref, corpus.WrongErrCheck, corpus.UncheckedAlloc,
	corpus.UnlockedAccess, corpus.MissingUnlock, corpus.IntrEnabled,
	corpus.SecUnchecked, corpus.MissingRevert, corpus.UseAfterFree,
}

// matchKinds lists the bug kinds a report of checker kind k may land
// on. Path-pair templates also rediscover leaked locks and broken
// IS_ERR disciplines, so those kinds absolve each other's reports; this
// is the same table the paper's experiment harness scores with.
func matchKinds(k corpus.BugKind) []corpus.BugKind {
	switch k {
	case corpus.MissingRevert:
		return []corpus.BugKind{k, corpus.MissingUnlock, corpus.WrongErrCheck}
	case corpus.MissingUnlock:
		return []corpus.BugKind{k, corpus.WrongErrCheck, corpus.IntrEnabled}
	}
	return []corpus.BugKind{k}
}

// lineTolerance is how far a report may sit from its seeded bug's line.
const lineTolerance = 2

// quality sums finding-quality counts over the ops of a run.
type quality struct {
	tp, fn  int // seeded bugs found / missed, summed over bug kinds
	reports int // every report, matched or not
	depth   int // summed inspection depth
	trees   int
}

// score grades one answer's ranked reports against its tree's manifest
// and adds the counts to q.
func (q *quality) score(bugs []corpus.Bug, ranked []report.Report) {
	c := &corpus.Corpus{Bugs: bugs}
	for _, k := range bugKinds {
		sc := corpus.ScoreReportsKinds(c, ranked, k, matchKinds(k), lineTolerance)
		q.tp += sc.TruePositives
		q.fn += sc.FalseNegatives
	}
	q.reports += len(ranked)
	q.depth += inspectDepth(bugs, ranked)
	q.trees++
}

// inspectDepth is the paper's §5 inspection rule: walking the ranked
// list from the top, how many reports are true positives before the
// first false positive. Each seeded bug absorbs at most one report.
func inspectDepth(bugs []corpus.Bug, ranked []report.Report) int {
	used := make([]bool, len(bugs))
	for n, r := range ranked {
		hit := -1
		for i, b := range bugs {
			if used[i] || b.File != r.Pos.File || abs(r.Pos.Line-b.Line) > lineTolerance || !reportsKind(r.Checker, b.Kind) {
				continue
			}
			hit = i
			break
		}
		if hit < 0 {
			return n
		}
		used[hit] = true
	}
	return len(ranked)
}

// reportsKind reports whether a report from checker may land on a bug
// of kind b, under the same cross-kind table as matchKinds.
func reportsKind(checker string, b corpus.BugKind) bool {
	for _, k := range bugKinds {
		if checker != string(k) && !strings.HasPrefix(checker, string(k)+"/") {
			continue
		}
		for _, m := range matchKinds(k) {
			if m == b {
				return true
			}
		}
	}
	return false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
