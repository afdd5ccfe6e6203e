// Command benchjson converts `go test -bench` text output (read from
// stdin) into a stable JSON document, so CI can archive one
// BENCH_<sha>.json artifact per push and the repository accumulates a
// machine-readable performance trajectory.
//
// Usage:
//
//	go test -bench . -benchtime 5x -run '^$' ./... | benchjson -sha $GITHUB_SHA -o BENCH_$GITHUB_SHA.json
//
// Every benchmark line contributes one entry with its iteration count
// and all reported metrics (ns/op, B/op, allocs/op, and custom metrics
// such as the partitioner benches' part-ms). The goos/goarch/pkg/cpu
// header lines annotate the entries; -sha (defaulting to $GITHUB_SHA)
// stamps the document. With -o absent or "-", the JSON goes to stdout.
//
// -gate <baseline.json> turns benchjson into the CI regression rail:
// the parsed stdin is compared against the baseline document (itself
// written by an earlier benchjson run, see `make bench-baseline`) and
// the process exits non-zero when any baseline benchmark is missing
// from the input, reports more than (1+alloc-tol)× the baseline
// allocs/op (exact when the baseline is zero — an allocation-free
// kernel must stay allocation-free). ns/op is archived, not gated: a
// stored wall time says more about the host it was recorded on than
// about the code. Benchmarks present on stdin but absent from the
// baseline are noted, not failed, so adding a benchmark does not
// require a lockstep baseline refresh. Names are matched with the
// -GOMAXPROCS suffix stripped, keyed by package, so baselines travel
// across machines with different core counts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one `BenchmarkXxx-N  runs  metrics...` line.
type Benchmark struct {
	Pkg     string             `json:"pkg,omitempty"`
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the archived JSON document.
type Doc struct {
	SHA        string      `json:"sha,omitempty"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse reads `go test -bench` output and collects the benchmark lines.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line, pkg)
			if err != nil {
				return nil, err
			}
			if b != nil {
				doc.Benchmarks = append(doc.Benchmarks, *b)
			}
		}
	}
	return doc, sc.Err()
}

// parseBenchLine splits "BenchmarkName-8  5  123 ns/op  4.5 part-ms"
// into a Benchmark; lines without an iteration count (e.g. a benchmark
// name echoed by -v) are skipped, not errors.
func parseBenchLine(line, pkg string) (*Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, nil
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, nil // "BenchmarkX" alone, or a failure marker
	}
	b := &Benchmark{Pkg: pkg, Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad metric value %q in %q", fields[i], line)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}

// gateKey identifies a benchmark across machines: package plus name
// with the trailing -GOMAXPROCS suffix stripped (the suffix tracks the
// host's core count, not the benchmark).
func gateKey(b Benchmark) string {
	name := b.Name
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return b.Pkg + " " + name
}

// compare gates cur against base: every baseline benchmark must be
// present and must not allocate more than (1+allocTol)× its baseline
// allocs/op (exactly zero when the baseline is zero). Returns the hard
// failures and the informational notes (benchmarks without a baseline)
// separately.
func compare(base, cur *Doc, allocTol float64) (problems, notes []string) {
	current := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		current[gateKey(b)] = b
	}
	seen := make(map[string]bool, len(base.Benchmarks))
	for _, bb := range base.Benchmarks {
		key := gateKey(bb)
		seen[key] = true
		cb, ok := current[key]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from input (removed, renamed, or failed to run?)", key))
			continue
		}
		if baseA, ok := bb.Metrics["allocs/op"]; ok {
			curA, ok := cb.Metrics["allocs/op"]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: baseline has allocs/op but input does not (run with -benchmem)", key))
			} else if curA > baseA*(1+allocTol) {
				problems = append(problems, fmt.Sprintf("%s: allocs/op %.0f exceeds baseline %.0f (tolerance %.0f%%)", key, curA, baseA, allocTol*100))
			}
		}
	}
	for _, b := range cur.Benchmarks {
		if key := gateKey(b); !seen[key] {
			notes = append(notes, fmt.Sprintf("%s: not in baseline (run `make bench-baseline` to pin it)", key))
		}
	}
	return problems, notes
}

func main() {
	sha := flag.String("sha", os.Getenv("GITHUB_SHA"), "commit sha to stamp the document with")
	out := flag.String("o", "-", "output file (\"-\" = stdout)")
	gate := flag.String("gate", "", "baseline JSON to gate against; exit non-zero on regression")
	allocTol := flag.Float64("alloc-tol", 0.05, "allocs/op headroom over baseline (scheduling noise; zero baselines stay exact)")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	doc.SHA = *sha
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	if *gate != "" {
		raw, err := os.ReadFile(*gate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		base := &Doc{}
		if err := json.Unmarshal(raw, base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad baseline %s: %v\n", *gate, err)
			os.Exit(1)
		}
		problems, notes := compare(base, doc, *allocTol)
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "benchjson: note: %s\n", n)
		}
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: %s\n", p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Printf("bench-gate OK: %d benchmarks within baseline %s\n", len(base.Benchmarks), *gate)
		if *out == "-" {
			return // gate mode only emits JSON when -o names a file
		}
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
