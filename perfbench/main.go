// Command perfbench is the repository's end-to-end benchmark. One process
// hosts the real engines — the experiment registry, serve.Engine,
// lb.Engine and loadgen.Engine — behind loopback listeners, runs one
// workload for a fixed time, checks that every output is correct, and
// prints its metrics by name with their units. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the gated end-to-end set; with -trace 1
// the run is split into an untraced and a traced half, the per-layer
// metrics come from the traced half, and both halves' end-to-end numbers
// are printed side by side as the tracing overhead. A failed correctness
// check exits non-zero without printing a result.
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options is one run's configuration, parsed from the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// toy shrinks every workload to a few sessions and the quick
	// experiment scale, for the benchmark's own test.
	toy bool
	// root is the repository checkout (golden tables are read from it);
	// out is where the traced run writes its spans.
	root, out string
	// corruptRef flips every reference digest so the run must fail; the
	// benchmark's test uses it to prove the digest check is live.
	corruptRef bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"paper":  runPaper,
	"stream": func(o options) (*outcome, error) { return runNet(o, streamShape(o.toy)) },
	"fleet":  func(o options) (*outcome, error) { return runNet(o, fleetShape(o.toy)) },
	"churn":  func(o options) (*outcome, error) { return runNet(o, churnShape(o.toy)) },
}

func parseOptions(args []string) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: paper, stream, fleet or churn")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (1 is the experiments' default seed)")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	fs.BoolVar(&o.toy, "toy", false, "toy sizes (for the benchmark's own test)")
	fs.StringVar(&o.root, "root", ".", "repository checkout")
	fs.StringVar(&o.out, "out", "", "span output directory (default <root>/.bench_build/spans)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "spans")
	}
	return o, nil
}

// run parses the command line, executes one workload and writes its
// report to w.
func run(args []string, w io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	return runOptions(o, w)
}

func runOptions(o options, w io.Writer) error {
	// Inputs the benchmark reads from the checkout; without them (a
	// directory holding only the benchmark) the run fails up front.
	if _, err := os.Stat(filepath.Join(o.root, "internal", "experiment", "testdata")); err != nil {
		return fmt.Errorf("not a repository checkout: %w", err)
	}
	out, err := workloads[o.workload](o)
	if err != nil {
		return err
	}
	if out.attempted < 1 {
		return errors.New("no operation attempted")
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if o.trace {
		for _, d := range layerCatalog {
			res.Metrics[d.name] = metric{finite(out.layer[d.name]), d.unit}
		}
	} else {
		for _, d := range gatedCatalog {
			v, ok := out.e2e[d.name]
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("gated metric %s has no positive value on %s", d.name, o.workload)
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s\n", runContext(o))
	for _, l := range out.lines {
		fmt.Fprintln(w, l)
	}
	printE2E(w, o.workload, out)
	if o.trace {
		printOverhead(w, o.workload, out)
		printLayers(w, out.layer)
		if err := out.tr.writeSpans(o, w); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// outcome is what a workload returns.
type outcome struct {
	attempted, failed int64
	// e2e holds the untraced end-to-end metrics that apply to the
	// workload, by the names of e2eCatalog; traced holds the same
	// metrics from the traced half of a traced run.
	e2e, traced values
	// layer holds the per-layer metrics of a traced run.
	layer values
	// lines are workload-specific report lines printed before the
	// metrics.
	lines []string
	tr    *tracer
}

// values maps metric names to measured values.
type values map[string]float64

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// def names a metric and its unit.
type def struct{ name, unit string }

// e2eCatalog lists every end-to-end metric a workload may report; each
// workload reports the ones that apply to it (see README.md).
var e2eCatalog = []def{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"lag_p50_ms", "ms"},
	{"lag_p99_ms", "ms"},
	{"lag_p999_ms", "ms"},
	{"lag_samples", "count"},
	{"late_pct", "%"},
	{"failed_pct", "%"},
	{"sessions_per_s", "1/s"},
	{"handshake_p50_ms", "ms"},
	{"handshake_p99_ms", "ms"},
	{"cpu_us_per_msg", "us"},
	{"cpu_us_per_op", "us"},
	{"wall_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

func printE2E(w io.Writer, workload string, out *outcome) {
	for _, d := range e2eCatalog {
		if v, ok := out.e2e[d.name]; ok {
			fmt.Fprintf(w, "e2e %-8s %-18s %14.6g %s\n", workload, d.name, v, d.unit)
		}
	}
}

func printOverhead(w io.Writer, workload string, out *outcome) {
	fmt.Fprintf(w, "# tracing overhead on %s: untraced half vs traced half\n", workload)
	for _, d := range e2eCatalog {
		u, ok1 := out.e2e[d.name]
		t, ok2 := out.traced[d.name]
		if !ok1 || !ok2 {
			continue
		}
		pct := "n/a"
		if u != 0 {
			pct = fmt.Sprintf("%+.1f%%", 100*(t-u)/u)
		}
		fmt.Fprintf(w, "overhead %-18s untraced %12.6g traced %12.6g %-5s %s\n", d.name, u, t, d.unit, pct)
	}
}

func printLayers(w io.Writer, layer values) {
	for _, d := range layerCatalog {
		fmt.Fprintf(w, "layer %-32s %14.6g %s\n", d.name, layer[d.name], d.unit)
	}
}

// finite maps a missing or non-finite per-layer value to 0: a layer the
// workload does not exercise did no work.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// joinf formats a report line from key=value pairs.
func joinf(prefix string, kv ...any) string {
	var sb strings.Builder
	sb.WriteString(prefix)
	for i := 0; i+1 < len(kv); i += 2 {
		fmt.Fprintf(&sb, " %v=%v", kv[i], kv[i+1])
	}
	return sb.String()
}
