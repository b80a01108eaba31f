// Command perfbench is deviant's end-to-end benchmark. It starts the real
// programs under test (the deviant CLI, or deviantd as a standalone
// daemon or as a coordinator with two workers), drives one named
// workload against them from this single load-generator process as a
// closed loop, checks every output against the seeded ground truth and
// across execution paths, and prints the result as one JSON object on
// the last line of standard output.
//
// Usage (from the root of a deviant checkout, after building deviant and
// deviantd into -bin; perfbench/run.sh does both):
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
// by timing calls into the internal packages on the workload's own
// inputs and by scraping the daemons' /metrics, and it also writes a
// Chrome trace (loadable in Perfetto) and a per-layer self-time table
// under -work. The command exits 1 when any output check fails, and 2
// on bad usage or when the programs under test cannot be started.
package main

import (
	"debug/buildinfo"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: a workload, its seed and how long to measure.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	bin      string // directory holding the deviant and deviantd binaries
	work     string // scratch directory for trees, logs and traces
	rec      *recorder
	layers   *layerMetrics // non-nil in a traced run
	ctx      map[string]any
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) (*tally, error){
	"batch-cold":    runBatchCold,
	"edit-warm":     runEditWarm,
	"serve-mixed":   runServeMixed,
	"fleet-scatter": runFleetScatter,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, runs one workload and writes the context and result
// lines to stdout. It returns the process exit code.
func run(args []string, stdout io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload: batch-cold, edit-warm, serve-mixed or fleet-scatter")
	seed := flags.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := flags.Int("seconds", 10, "length of the measured window")
	trace := flags.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	bin := flags.String("bin", "", "directory holding the deviant and deviantd binaries")
	work := flags.String("work", "", "scratch directory for trees, logs and traces")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) || flags.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	runDir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(runDir)
	b := &bench{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		bin:      *bin,
		work:     runDir,
		ctx:      runContext(*bin),
	}
	if *trace == 1 {
		b.rec = newRecorder()
		b.layers = newLayerMetrics()
	}
	steal0, total0 := hostTicks()
	t, err := drive(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	res := result{
		Correct:   t.correct(),
		Attempted: t.attempted,
		Failed:    t.failed,
	}
	b.ctx["workload"] = b.workload
	b.ctx["seed"] = b.seed
	b.ctx["seconds"] = *seconds
	b.ctx["samples"] = len(t.lat)
	b.ctx["setups"] = len(t.setups)
	b.ctx["checks"] = t.checks
	steal1, total1 := hostTicks()
	b.ctx["host_steal_frac"] = ratio(float64(steal1-steal0), float64(total1-total0))
	k, beyond := tailRank(len(t.lat))
	b.ctx["latency_tail_percentile"] = 100 * ratio(float64(k), float64(len(t.lat)))
	b.ctx["latency_tail_samples_beyond"] = beyond
	if b.rec != nil {
		res.Metrics = b.layers.metrics()
		if err := b.writeTrace(*work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	} else {
		res.Metrics = t.endToEnd()
	}
	for i, msg := range t.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed checks\n", len(t.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	if err := printLines(stdout, b.ctx, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTrace saves the traced run's spans as Chrome trace JSON and its
// per-layer self-time table as text, both next to the run directory.
func (b *bench) writeTrace(dir string) error {
	base := filepath.Join(dir, fmt.Sprintf("trace-%s-%d", b.workload, b.seed))
	f, err := os.Create(base + ".json")
	if err != nil {
		return err
	}
	if err := b.rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := b.rec.selfTimeTable()
	if err := os.WriteFile(base+".txt", []byte(table), 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, table)
	b.ctx["trace_file"] = base + ".json"
	return nil
}

// runContext records the machine and build a result was measured on.
// The commit comes from the VCS stamp Go embeds in the deviantd binary;
// a checkout without VCS metadata reads "unknown".
func runContext(bin string) map[string]any {
	ctx := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     "unknown",
	}
	if info, err := buildinfo.ReadFile(filepath.Join(bin, "deviantd")); err == nil {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				ctx["commit"] = s.Value
			case "vcs.modified":
				ctx["commit_modified"] = s.Value == "true"
			}
		}
	}
	return ctx
}

// printLines writes the run context and then the result, each as one
// JSON line; the result is the last line of standard output.
func printLines(w io.Writer, ctx map[string]any, res result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"context": ctx}); err != nil {
		return err
	}
	return enc.Encode(res)
}
