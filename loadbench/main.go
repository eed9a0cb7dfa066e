// Command loadbench is the end-to-end load benchmark for threatserver,
// the threatrouter tier and the scenario write path. It launches the
// real binaries, drives one seeded workload from this single process,
// byte-checks every response against a reference derived in-process
// from the batch analysis paths, and prints every metric by name with
// its unit. With -trace 1 it instead reports the per-layer breakdown:
// in-process replays of each layer's entry points on the workload's
// exact inputs, counter deltas from the targets' /v1/metrics, and
// /proc readings of the target processes.
//
// Usage (from the repository root, after building the binaries; see
// run.sh, which does both):
//
//	loadbench -workload read-hot -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Everything before it is the human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix; see README.md for why each exists.
type workload struct {
	name     string
	routed   bool    // threatrouter + 2 workers instead of one threatserver
	writer   bool    // a paced writer runs beside the reader
	openRate float64 // fixed open-loop arrival rate, reads/s
}

var workloads = []workload{
	{name: "read-hot", openRate: 800},
	{name: "read-routed", routed: true, openRate: 800},
	{name: "jobs-mixed", writer: true, openRate: 300},
}

// setupRepeats is how many times each run launches its targets; setup_s
// is the median, and the last launch serves the run.
const setupRepeats = 3

// benchEnv is what every phase of a run shares.
type benchEnv struct {
	serverBin, routerBin string
	work                 string       // run state: logs, stores, span dumps
	client               *http.Client // the reader's: at most nproc connections
	nproc                int
	diag                 io.Writer // stage timings, to stderr
	t0                   time.Time
}

// stage logs a run stage with the time since the run started.
func (e *benchEnv) stage(format string, args ...any) {
	fmt.Fprintf(e.diag, "loadbench: %6.2fs %s\n", time.Since(e.t0).Seconds(), fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: read-hot, read-routed or jobs-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	bin := fs.String("bin", ".bench_build/bin", "directory holding threatserver and threatrouter")
	work := fs.String("work", ".bench_build/run", "directory for logs, stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "loadbench: need -workload (read-hot|read-routed|jobs-mixed), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	env := &benchEnv{
		serverBin: filepath.Join(*bin, "threatserver"),
		routerBin: filepath.Join(*bin, "threatrouter"),
		work:      filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, *trace)),
		nproc:     runtime.NumCPU(),
		diag:      stderr,
		t0:        time.Now(),
	}
	for _, b := range []string{env.serverBin, env.routerBin} {
		if _, err := os.Stat(b); err != nil {
			fmt.Fprintf(stderr, "loadbench: %v (build the binaries first; see run.sh)\n", err)
			return 1
		}
	}
	if err := os.RemoveAll(env.work); err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 1
	}
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 1
	}
	// The generator allocates per request; at the default GOGC its own
	// collector would run several times a second and its pauses would
	// land in the latencies it measures. Its live heap is a few MB, so
	// a 10x heap target keeps it well under 200 MB.
	debug.SetGCPercent(1000)
	env.client = newClient(env.nproc)
	defer env.client.CloseIdleConnections()

	fmt.Fprintf(stdout, "# loadbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# machine: %s, nproc=%d, cpu=%q\n", runtime.Version(), env.nproc, cpuModel())
	res, err := runWorkload(env, *w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // sample count or definition, printed in the report only
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric // the JSON set: end-to-end or per-layer
	extra     map[string]metric // printed in the report, not in the JSON
	problems  []string
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}, extra: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit, note string) {
	r.metrics[name] = r.finite(name, v, unit, note, true)
}

func (r *result) setExtra(name string, v float64, unit, note string) {
	r.extra[name] = r.finite(name, v, unit, note, false)
}

// finite guards the JSON line: a metric with no defined value (no
// samples) is reported as 0 and flagged in the report, and a gated
// one makes the run invalid.
func (r *result) finite(name string, v float64, unit, note string, gated bool) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		msg := fmt.Sprintf("%s has no defined value (%s)", name, note)
		if gated {
			r.invalid("%s", msg)
		} else {
			r.problems = append(r.problems, msg)
		}
		v = 0
	}
	return metric{Value: v, Unit: unit, note: note}
}

// invalid marks the run incorrect for a reason that is not one
// operation's failure: a contradicted counter, a missing metric.
func (r *result) invalid(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fail records a failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) print(w io.Writer) {
	for _, p := range r.problems {
		fmt.Fprintf(w, "# problem: %s\n", p)
	}
	printMetrics(w, "metric", r.metrics)
	printMetrics(w, "extra", r.extra)
	ratio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "ops attempted=%d failed=%d failed_ratio=%.6f correct=%t\n", r.attempted, r.failed, ratio, r.correct)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of finite floats and strings always marshals
	}
	fmt.Fprintln(w, string(b))
}

func printMetrics(w io.Writer, kind string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x := m[n]
		fmt.Fprintf(w, "%s %-36s %14.6g %-6s %s\n", kind, n, x.Value, x.Unit, x.note)
	}
}
