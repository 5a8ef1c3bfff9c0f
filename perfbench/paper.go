package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiment"
)

// namedExperiments get their own per-layer span metric; the rest are
// summed into experiment.other_s.
var namedExperiments = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "robust", "onlinelb", "brd"}

// pass is one timed run over every registered experiment.
type pass struct {
	wall   time.Duration
	cpu    time.Duration
	perExp map[string]time.Duration
	gc     gcStats // delta over the pass
}

// runPaper runs every registered experiment at full scale (the
// cmd/experiments defaults) with sweep workers = GOMAXPROCS, repeatedly,
// and checks that the tables are identical across passes and that the
// quick-scale tables match the committed golden files.
func runPaper(o options) (*outcome, error) {
	out := &outcome{e2e: values{}, tr: newTracer()}
	reg := experiment.All()
	names := experiment.Names()

	// Set-up: the quick-scale pass over every experiment, which warms the
	// allocator and the simulator's arenas and proves golden equivalence.
	// It runs several times; setup_s is the median.
	reps := 5
	if o.toy {
		reps = 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		runtime.GC() // as on the network workloads: each set-up from a collected heap
		start := time.Now()
		if err := checkGolden(o.root, reg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	out.lines = append(out.lines, setupLine(setups))

	cfg := experiment.Config{Seed: o.seed, Workers: runtime.GOMAXPROCS(0)}
	if o.toy {
		cfg.Quick = true
	}
	var ref map[string]string // tables of the first pass
	runPasses := func(budget time.Duration, traced bool) ([]pass, error) {
		var passes []pass
		deadline := time.Now().Add(budget)
		for len(passes) == 0 || time.Now().Before(deadline) {
			p := pass{perExp: map[string]time.Duration{}}
			root := -1
			if traced {
				root = out.tr.begin("paper.pass")
			}
			g0, c0, start := readGC(), cpuTime(), time.Now()
			tables := map[string]string{}
			for _, name := range names {
				t0 := time.Now()
				var tab *experiment.Table
				call := func() error {
					var err error
					tab, err = reg[name](cfg)
					return err
				}
				var err error
				if traced {
					err = out.tr.call("experiment."+name, "", call)
				} else {
					err = call()
				}
				if err != nil {
					return nil, fmt.Errorf("experiment %s: %w", name, err)
				}
				p.perExp[name] = time.Since(t0)
				tables[name] = tab.CSV()
			}
			p.wall, p.cpu = time.Since(start), cpuTime()-c0
			g1 := readGC()
			p.gc = gcStats{g1.cycles - g0.cycles, g1.pauseNs - g0.pauseNs, g1.alloc - g0.alloc, g1.mallocs - g0.mallocs}
			if traced {
				out.tr.end(root)
			}
			if ref == nil {
				ref = tables
			}
			for name, csv := range tables {
				if csv != ref[name] {
					return nil, fmt.Errorf("experiment %s: table differs between passes", name)
				}
			}
			passes = append(passes, p)
			out.lines = append(out.lines, joinf("# pass", "n", len(passes), "traced", traced,
				"wall_s", fmt.Sprintf("%.3f", p.wall.Seconds()), "cpu_s", fmt.Sprintf("%.3f", p.cpu.Seconds()),
				"gc_cycles", p.gc.cycles, "alloc_mb", p.gc.alloc>>20))
		}
		return passes, nil
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	passes, err := runPasses(budget, false)
	if err != nil {
		return nil, err
	}
	paperE2E(out.e2e, passes)
	out.attempted = int64(len(passes) * len(names))
	if o.trace {
		tpasses, err := runPasses(budget, true)
		if err != nil {
			return nil, err
		}
		out.traced = values{}
		paperE2E(out.traced, tpasses)
		out.attempted += int64(len(tpasses) * len(names))
		out.layer = paperLayers(tpasses)
		out.layer["trace.overhead_pct"] = overheadPct(out.e2e["suite_s"], out.traced["suite_s"])
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.lines = append(out.lines, joinf("# paper:", "experiments", len(names), "passes", len(passes),
		"workers", cfg.Workers, "quick", cfg.Quick, "golden_ok", true))
	return out, nil
}

// checkGolden runs every experiment at quick scale with the default seed
// and compares each table that has a committed golden file with it.
func checkGolden(root string, reg map[string]experiment.Runner) error {
	dir := filepath.Join(root, "internal", "experiment", "testdata")
	checked := 0
	for _, name := range experiment.Names() {
		tab, err := reg[name](experiment.Config{Quick: true, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return fmt.Errorf("experiment %s (quick): %w", name, err)
		}
		want, err := os.ReadFile(filepath.Join(dir, name+"_quick.csv"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("golden table: %w", err)
		}
		if tab.CSV() != string(want) {
			return fmt.Errorf("experiment %s: quick-scale table differs from its golden file", name)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("no golden tables in %s", dir)
	}
	return nil
}

func paperE2E(v values, passes []pass) {
	var walls, cpus []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, float64(p.cpu)/1e3)
	}
	v["suite_s"] = median(walls)
	v["wall_us_per_op"] = median(walls) * 1e6
	v["cpu_us_per_op"] = median(cpus)
}

func paperLayers(passes []pass) values {
	l := values{}
	named := map[string]bool{}
	for _, n := range namedExperiments {
		named[n] = true
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.perExp[n].Seconds())
		}
		l["experiment."+n+"_s"] = median(xs)
	}
	var other, allocMB, allocs, cycles, pause []float64
	for _, p := range passes {
		var o time.Duration
		for n, d := range p.perExp {
			if !named[n] {
				o += d
			}
		}
		other = append(other, o.Seconds())
		allocMB = append(allocMB, float64(p.gc.alloc)/(1<<20))
		allocs = append(allocs, float64(p.gc.mallocs))
		cycles = append(cycles, float64(p.gc.cycles))
		pause = append(pause, float64(p.gc.pauseNs)/1e6)
	}
	l["experiment.other_s"] = median(other)
	l["experiment.alloc_mb"] = median(allocMB)
	l["experiment.allocs"] = median(allocs)
	l["runtime.gc_cycles"] = median(cycles)
	l["runtime.gc_pause_ms"] = median(pause)
	return l
}
