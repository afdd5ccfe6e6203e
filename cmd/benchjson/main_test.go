package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: chaos
cpu: Intel(R) Xeon(R)
BenchmarkExecutorMesh4K-8   	       5	 210000000 ns/op
PASS
ok  	chaos	2.1s
pkg: chaos/internal/partition
BenchmarkMultilevel20K-8   	       5	 123456789 ns/op	        33.50 part-ms
BenchmarkRSB20K
BenchmarkRSB20K-8          	       5	 987654321 ns/op	       250.00 part-ms
PASS
ok  	chaos/internal/partition	9.9s
`
	doc, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoOS != "linux" || doc.GoArch != "amd64" || doc.CPU != "Intel(R) Xeon(R)" {
		t.Errorf("header = %q/%q/%q", doc.GoOS, doc.GoArch, doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	b := doc.Benchmarks[1]
	if b.Pkg != "chaos/internal/partition" || b.Name != "BenchmarkMultilevel20K-8" || b.Runs != 5 {
		t.Errorf("bench[1] = %+v", b)
	}
	if b.Metrics["ns/op"] != 123456789 || b.Metrics["part-ms"] != 33.5 {
		t.Errorf("bench[1] metrics = %v", b.Metrics)
	}
	if doc.Benchmarks[2].Metrics["part-ms"] != 250 {
		t.Errorf("bench[2] metrics = %v", doc.Benchmarks[2].Metrics)
	}
}

func TestParseBadMetricValue(t *testing.T) {
	_, err := parse(strings.NewReader("Benchmark_X-2 3 oops ns/op\n"))
	if err == nil {
		t.Fatal("want error for malformed metric value")
	}
}

func TestParseEmptyInput(t *testing.T) {
	doc, err := parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("want no benchmarks, got %+v", doc.Benchmarks)
	}
}
