package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare mode reads.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readRuns loads an -out file and groups its untraced runs' metric
// values by workload and metric name.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if sets[rec.Workload] == nil {
			sets[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			sets[rec.Workload][name] = append(sets[rec.Workload][name], v.Value)
		}
		sets[rec.Workload]["failed"] = append(sets[rec.Workload]["failed"], float64(rec.Result.Failed))
	}
	return sets, sc.Err()
}

// comparison is one metric × workload row of compare mode.
type comparison struct {
	workload, metric string
	base, cand       float64 // medians
	baseIQR, candIQR float64 // quartile distance as a share of the median
	n                int
	fail             bool
}

// compareSets holds candidate medians against base medians, metric by
// metric and workload by workload, under the bounds of spec. The
// failure count is compared under the absolute rule: any more failed
// operations than the base regress.
func compareSets(spec benchmarkSpec, base, cand map[string]map[string][]float64) []comparison {
	metrics := append(append([]metricSpec(nil), spec.EndToEnd...),
		metricSpec{Name: "failed", Unit: "count", Better: "lower"})
	var names []string
	for w := range base {
		if cand[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var rows []comparison
	for _, w := range names {
		for _, m := range metrics {
			b, c := base[w][m.Name], cand[w][m.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			row := comparison{workload: w, metric: m.Name, base: median(b), cand: median(c),
				baseIQR: iqrShare(b), candIQR: iqrShare(c), n: min(len(b), len(c))}
			row.fail = regressed(m, row.base, row.cand)
			rows = append(rows, row)
		}
	}
	return rows
}

// compareMain is -compare CAND -against BASE: it prints one row per
// metric × workload and exits 1 when any row regresses past its bound.
// Run on two sets from one commit it is the A/A check: every row must
// pass.
func compareMain(candPath, basePath, specPath string) int {
	if candPath == "" || basePath == "" {
		fmt.Fprintln(os.Stderr, "benchmark: compare mode needs both -compare and -against")
		return 2
	}
	spec, err := readSpec(specPath)
	if err == nil && len(spec.EndToEnd) == 0 {
		err = fmt.Errorf("%s lists no end_to_end metric", specPath)
	}
	var base, cand map[string]map[string][]float64
	if err == nil {
		base, err = readRuns(basePath)
	}
	if err == nil {
		cand, err = readRuns(candPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	rows := compareSets(spec, base, cand)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two sets share no workload")
		return 2
	}
	status := 0
	fmt.Printf("%-16s %-18s %4s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "runs", "base median", "cand median", "diff", "base IQR", "cand IQR", "verdict")
	for _, r := range rows {
		verdict := "PASS"
		if r.fail {
			verdict, status = "FAIL", 1
		}
		fmt.Printf("%-16s %-18s %4d %14.6g %14.6g %+8.3f%% %7.3f%% %7.3f%%  %s\n", r.workload, r.metric, r.n,
			r.base, r.cand, 100*relDiff(r.base, r.cand), 100*r.baseIQR, 100*r.candIQR, verdict)
	}
	return status
}
