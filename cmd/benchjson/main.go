// Command benchjson converts `go test -bench` text output into JSON so
// benchmark baselines can be committed and diffed (see BENCH_quick.json).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_quick.json
//	benchjson -in bench.txt -out BENCH_quick.json
//
// The converter understands the standard benchmark line format
//
//	BenchmarkName-8   125   9561906 ns/op   4096 B/op   12 allocs/op
//
// plus the goos/goarch/pkg/cpu header lines, and ignores everything else
// (PASS, ok, test log output). A benchmark run more than once (-count N)
// folds into one row: the median ns/op and the largest B/op and
// allocs/op, so a noisy timing sample cannot decide a gate and an
// allocation seen once is never hidden.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Pkg is the package the benchmark came from, when the input covered
	// more than one (e.g. `go test -bench . ./...`); empty otherwise.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem; null when absent.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
}

// File is the committed JSON document. Pkg is the single package the
// benchmarks came from; when the input spans several packages it is empty
// and each Result carries its own Pkg instead.
type File struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	inPath := flag.String("in", "", "input file (default stdin)")
	outPath := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	doc, err := Parse(in)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *outPath != "" {
		return os.WriteFile(*outPath, buf, 0o644)
	}
	_, err = os.Stdout.Write(buf)
	return err
}

// Parse reads `go test -bench` output and collects header metadata and
// benchmark lines.
func Parse(r io.Reader) (*File, error) {
	doc := &File{}
	pkg, multiPkg := "", false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			if doc.Pkg == "" && !multiPkg {
				doc.Pkg = pkg
			} else if doc.Pkg != pkg {
				multiPkg = true
				doc.Pkg = ""
			}
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseLine(line)
			if !ok {
				continue
			}
			res.Pkg = pkg
			doc.Benchmarks = append(doc.Benchmarks, res)
		}
	}
	doc.Benchmarks = fold(doc.Benchmarks)
	if !multiPkg {
		// Single-package input: keep the package at the file level only,
		// preserving the original compact format.
		for i := range doc.Benchmarks {
			doc.Benchmarks[i].Pkg = ""
		}
	}
	return doc, sc.Err()
}

// fold merges the rows of each (pkg, name, procs) into one, at the
// position of its first row: the median ns/op (the mean of the middle
// two for an even count) and the largest B/op and allocs/op.
func fold(rows []Result) []Result {
	type key struct {
		pkg, name string
		procs     int
	}
	var out []Result
	ns := map[key][]float64{}
	at := map[key]int{}
	for _, r := range rows {
		k := key{r.Pkg, r.Name, r.Procs}
		i, seen := at[k]
		if !seen {
			at[k] = len(out)
			out = append(out, r)
		} else {
			out[i].BytesPerOp = maxPtr(out[i].BytesPerOp, r.BytesPerOp)
			out[i].AllocsPerOp = maxPtr(out[i].AllocsPerOp, r.AllocsPerOp)
		}
		ns[k] = append(ns[k], r.NsPerOp)
	}
	for k, i := range at {
		v := ns[k]
		sort.Float64s(v)
		out[i].NsPerOp = (v[(len(v)-1)/2] + v[len(v)/2]) / 2
	}
	return out
}

// maxPtr returns the larger of two optional values.
func maxPtr(a, b *int64) *int64 {
	if a == nil || b != nil && *b > *a {
		return b
	}
	return a
}

// parseLine parses one benchmark result line; ok is false for lines that
// merely start with "Benchmark" but are not results.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	res := Result{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], p
		}
	}
	iter, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iter
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, false
	}
	res.NsPerOp = ns
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			res.BytesPerOp = &v
		case "allocs/op":
			res.AllocsPerOp = &v
		}
	}
	return res, true
}
