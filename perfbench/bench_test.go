package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// toyOptions runs a workload at toy size against this checkout.
func toyOptions(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 1, seconds: 0.3, trace: traced, toy: true, root: "..", out: t.TempDir()}
}

// appliesTo lists the end-to-end metrics each workload prints.
var appliesTo = map[string][]string{
	"paper":  {"setup_s", "suite_s", "cpu_us_per_op", "wall_us_per_op", "peak_rss_mb"},
	"stream": {"setup_s", "lag_p50_ms", "lag_p99_ms", "lag_p999_ms", "lag_samples", "late_pct", "failed_pct", "cpu_us_per_msg", "cpu_us_per_op", "wall_us_per_op", "peak_rss_mb"},
	"fleet":  {"setup_s", "lag_p50_ms", "lag_p99_ms", "lag_p999_ms", "lag_samples", "late_pct", "failed_pct", "cpu_us_per_msg", "cpu_us_per_op", "wall_us_per_op", "peak_rss_mb"},
	"churn": {"setup_s", "lag_p50_ms", "lag_p99_ms", "lag_p999_ms", "lag_samples", "late_pct", "failed_pct",
		"sessions_per_s", "handshake_p50_ms", "handshake_p99_ms", "cpu_us_per_msg", "cpu_us_per_op", "wall_us_per_op", "peak_rss_mb"},
}

func unitOf(name string) string {
	for _, d := range e2eCatalog {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// TestToyWorkloads runs every workload untraced and traced at toy size
// and checks that every named metric is printed with its unit and that
// the result line carries exactly the gated or per-layer set.
func TestToyWorkloads(t *testing.T) {
	for _, w := range []string{"paper", "stream", "fleet", "churn"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				var buf bytes.Buffer
				if err := runOptions(toyOptions(t, w, traced), &buf); err != nil {
					t.Fatal(err)
				}
				out := buf.String()
				for _, name := range appliesTo[w] {
					if !containsLine(out, "e2e", w, name, unitOf(name)) {
						t.Errorf("no %q line with unit %q:\n%s", name, unitOf(name), out)
					}
				}
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				want := map[string]string{}
				if traced {
					for _, d := range layerCatalog {
						want[d.name] = d.unit
						if !containsLine(out, "layer", d.name, d.unit) {
							t.Errorf("no layer line for %s", d.name)
						}
					}
					if !strings.Contains(out, "# tracing overhead") {
						t.Error("no tracing overhead table")
					}
				} else {
					for _, d := range gatedCatalog {
						want[d.name] = d.unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("result metric %s = %+v, want unit %s", name, m, unit)
					}
				}
			})
		}
	}
}

// TestCorruptReferenceFails proves the per-session digest check is live:
// with the reference digest corrupted, every network workload fails and
// prints no result.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range []string{"stream", "fleet", "churn"} {
		o := toyOptions(t, w, false)
		o.corruptRef = true
		var buf bytes.Buffer
		err := runOptions(o, &buf)
		if err == nil || !strings.Contains(err.Error(), "differ from the reference") {
			t.Errorf("%s: err = %v, want a reference mismatch", w, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: a failed run printed:\n%s", w, buf.String())
		}
	}
}

// containsLine reports whether some line's fields start with the given
// prefix fields and end with the given unit.
func containsLine(out string, fields ...string) bool {
	prefix, unit := fields[:len(fields)-1], fields[len(fields)-1]
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) < len(prefix)+1 || f[len(f)-1] != unit {
			continue
		}
		match := true
		for i, p := range prefix {
			if f[i] != p {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// TestGoldenMismatchFails proves the paper workload's golden check is
// live: a drifted golden table fails it.
func TestGoldenMismatchFails(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "experiment", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fig2_quick.csv"), []byte("x,y\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := checkGolden(root, experiment.All())
	if err == nil || !strings.Contains(err.Error(), "fig2") {
		t.Errorf("err = %v, want a fig2 golden mismatch", err)
	}
}
