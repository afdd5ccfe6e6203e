package main

import (
	"strings"
	"testing"
)

func mkBench(pkg, name string, allocs, ns float64) Benchmark {
	m := map[string]float64{}
	if allocs >= 0 {
		m["allocs/op"] = allocs
	}
	if ns >= 0 {
		m["ns/op"] = ns
	}
	return Benchmark{Pkg: pkg, Name: name, Runs: 5, Metrics: m}
}

func TestGateKeyStripsProcsSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkHotKLRefine-8":  "p BenchmarkHotKLRefine",
		"BenchmarkHotKLRefine-16": "p BenchmarkHotKLRefine",
		"BenchmarkHotKLRefine":    "p BenchmarkHotKLRefine",
		"BenchmarkMesh-2D-4":      "p BenchmarkMesh-2D",
	}
	for name, want := range cases {
		if got := gateKey(Benchmark{Pkg: "p", Name: name}); got != want {
			t.Errorf("gateKey(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCompareClean(t *testing.T) {
	base := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-8", 100, 1000)}}
	// ns/op is archived, not gated: a 10x slower host passes.
	cur := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-4", 100, 10000)}}
	problems, notes := compare(base, cur, 0.05)
	if len(problems) != 0 || len(notes) != 0 {
		t.Errorf("want clean pass, got problems=%v notes=%v", problems, notes)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-8", 100, 1000)}}
	// 104 is inside the 5% window, 106 is out.
	okCur := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-8", 104, 1000)}}
	if problems, _ := compare(base, okCur, 0.05); len(problems) != 0 {
		t.Errorf("104 allocs vs baseline 100 at 5%% tolerance should pass: %v", problems)
	}
	badCur := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-8", 106, 1000)}}
	problems, _ := compare(base, badCur, 0.05)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op") {
		t.Errorf("want one allocs/op failure, got %v", problems)
	}
}

func TestCompareZeroAllocBaselineIsExact(t *testing.T) {
	// An allocation-free kernel must stay allocation-free: with a zero
	// baseline the tolerance multiplies out to zero and a single alloc
	// fails the gate.
	base := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkKL-8", 0, 1000)}}
	cur := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkKL-8", 1, 1000)}}
	problems, _ := compare(base, cur, 0.05)
	if len(problems) != 1 {
		t.Errorf("want one failure for 0 -> 1 allocs, got %v", problems)
	}
	same := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkKL-8", 0, 1000)}}
	if problems, _ := compare(base, same, 0.05); len(problems) != 0 {
		t.Errorf("0 -> 0 allocs should pass, got %v", problems)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := &Doc{Benchmarks: []Benchmark{
		mkBench("p", "BenchmarkA-8", 10, 1000),
		mkBench("p", "BenchmarkGone-8", 10, 1000),
	}}
	cur := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-8", 10, 1000)}}
	problems, _ := compare(base, cur, 0.05)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing") {
		t.Errorf("want one missing-benchmark failure, got %v", problems)
	}
}

func TestCompareNewBenchmarkIsNoteNotFailure(t *testing.T) {
	base := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-8", 10, 1000)}}
	cur := &Doc{Benchmarks: []Benchmark{
		mkBench("p", "BenchmarkA-8", 10, 1000),
		mkBench("p", "BenchmarkNew-8", 999, 999999),
	}}
	problems, notes := compare(base, cur, 0.05)
	if len(problems) != 0 {
		t.Errorf("new benchmark must not fail the gate: %v", problems)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "BenchmarkNew") {
		t.Errorf("want one note for the new benchmark, got %v", notes)
	}
}

func TestCompareMissingBenchmemInInput(t *testing.T) {
	base := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-8", 10, 1000)}}
	cur := &Doc{Benchmarks: []Benchmark{mkBench("p", "BenchmarkA-8", -1, 1000)}}
	problems, _ := compare(base, cur, 0.05)
	if len(problems) != 1 || !strings.Contains(problems[0], "-benchmem") {
		t.Errorf("want one missing-allocs-metric failure, got %v", problems)
	}
}

func TestCompareDifferentPackagesDontCollide(t *testing.T) {
	// The same benchmark name in two packages must be tracked per
	// package, not merged.
	base := &Doc{Benchmarks: []Benchmark{
		mkBench("p1", "BenchmarkHot-8", 10, 1000),
		mkBench("p2", "BenchmarkHot-8", 20, 2000),
	}}
	cur := &Doc{Benchmarks: []Benchmark{
		mkBench("p1", "BenchmarkHot-8", 10, 1000),
		mkBench("p2", "BenchmarkHot-8", 50, 2000), // p2 regressed
	}}
	problems, _ := compare(base, cur, 0.05)
	if len(problems) != 1 || !strings.Contains(problems[0], "p2") {
		t.Errorf("want exactly the p2 regression, got %v", problems)
	}
}
