package main

import (
	"strings"
	"testing"
)

// TestFoldRepeatedRows — rows repeated by -count fold into one per
// (pkg, name, procs): median ns/op, largest B/op and allocs/op, at the
// first row's position; other rows pass through untouched.
func TestFoldRepeatedRows(t *testing.T) {
	in := `pkg: repro/a
BenchmarkX   5   300 ns/op   0 B/op   0 allocs/op
BenchmarkY   5   7 ns/op   16 B/op   1 allocs/op
BenchmarkX   5   100 ns/op   8 B/op   0 allocs/op
BenchmarkX   5   900 ns/op   0 B/op   2 allocs/op
BenchmarkX-4 5   50 ns/op   0 B/op   0 allocs/op
pkg: repro/b
BenchmarkX   5   40 ns/op   0 B/op   0 allocs/op
BenchmarkX   5   60 ns/op   0 B/op   0 allocs/op
`
	doc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		pkg, name     string
		procs         int
		ns            float64
		bytes, allocs int64
	}{
		{"repro/a", "BenchmarkX", 1, 300, 8, 2},
		{"repro/a", "BenchmarkY", 1, 7, 16, 1},
		{"repro/a", "BenchmarkX", 4, 50, 0, 0},
		{"repro/b", "BenchmarkX", 1, 50, 0, 0},
	}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for i, w := range want {
		r := doc.Benchmarks[i]
		if r.Pkg != w.pkg || r.Name != w.name || r.Procs != w.procs || r.NsPerOp != w.ns ||
			*r.BytesPerOp != w.bytes || *r.AllocsPerOp != w.allocs {
			t.Errorf("row %d = %s %s-%d %v ns %d B %d allocs, want %+v",
				i, r.Pkg, r.Name, r.Procs, r.NsPerOp, *r.BytesPerOp, *r.AllocsPerOp, w)
		}
	}
}
