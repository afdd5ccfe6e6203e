// Command benchmark is the repository's benchmark: four fixed-schedule
// workloads over the CHAOS runtime, the partitioner library and the
// chaosd service, measured on two clocks that are never mixed — the
// simulated iPSC/860's virtual seconds and the host's wall time and
// allocations. See README.md in this directory.
//
//	go run ./benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//	go run ./benchmark -compare a.jsonl -against b.jsonl
//
// The last line of standard output of a single-workload run is one
// JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of an -out file: a result with what produced
// it, so -compare can group runs.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func workloads() []workload {
	return []workload{eulerReuse(), eulerNoReuse(), partitionCold(), serviceMix()}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed    = flag.Uint64("seed", 1993, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "nominal length of the timed phase; scales the fixed op schedule")
		trace   = flag.Int("trace", 0, "1 records spans and layer probes and reports the per-layer metrics")
		quick   = flag.Bool("quick", false, "tiny inputs (what go test uses); numbers are not comparable")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON lines")
		out     = flag.String("out", "", "append each result to this JSON-lines file, for -compare")
		compare = flag.String("compare", "", "compare mode: JSON-lines file of the candidate set of runs")
		against = flag.String("against", "", "compare mode: JSON-lines file of the base set of runs")
		spec    = flag.String("spec", "BENCHMARK.json", "compare mode: where the bounds are read from")
	)
	flag.Parse()
	if *compare != "" || *against != "" {
		os.Exit(compareMain(*compare, *against, *spec))
	}

	var todo []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	for _, w := range todo {
		p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, tmpDir: "."}
		res, tr, err := runWorkload(w, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if *spans != "" && tr != nil {
			if err := tr.writeFile(*spans); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
		}
		if *out != "" {
			if err := appendRecord(*out, runRecord{Workload: w.name, Seed: *seed, Trace: p.trace, Result: res}); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
		}
		printResult(w, p, res)
	}
}

// runWorkload performs one run: the fresh set-ups, the last of which
// carries the warm-up, the timed phase and the oracles.
func runWorkload(w workload, p params) (result, *tracer, error) {
	repeats, spinN := setupRepeats, 25
	if w.setups > 0 {
		repeats = w.setups
	}
	if p.quick {
		repeats, spinN = 2, 2
	}
	var tr *tracer
	var spins []float64
	if p.trace {
		tr = newTracer(w.name)
		spins = spinProbe(spinN)
	}
	setups := make([]setupInfo, 0, repeats)
	for i := 0; i < repeats-1; i++ {
		info, err := w.run(p, tr, nil)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, info)
	}
	runtime.GC() // the discarded instances are not the kept one's heap
	rec := newRecorder(w, p, tr)
	info, err := w.run(p, tr, rec)
	if err != nil {
		return result{}, nil, err
	}
	setups = append(setups, info)
	if rec.attempted == 0 {
		return result{}, nil, fmt.Errorf("no operation was attempted")
	}

	var values map[string]float64
	specs := reportedMetrics(p.trace)
	if p.trace {
		machineProbes(rec.layers)
		for k, v := range hostMetrics(append(spins, spinProbe(spinN)...)) {
			rec.layers[k] = v
		}
		values, err = rec.perLayer()
	} else {
		values, err = rec.endToEnd(setups)
	}
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	if rec.cutShort {
		fmt.Fprintf(os.Stderr, "benchmark: %s: timed phase passed 1.5x its %g s schedule and was cut short after %d ops; the host is slower than the one the schedule was sized on\n", w.name, p.seconds, rec.attempted)
	}
	if rec.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed, first: %s\n", w.name, rec.failed, rec.attempted, rec.firstFail)
	}
	return res, tr, nil
}

// reportedMetrics is what a run reports: the end-to-end metrics, or
// with tracing the per-layer ones.
func reportedMetrics(trace bool) []metricSpec {
	if trace {
		return perLayerMetrics()
	}
	return endToEndMetrics
}

// printResult prints every metric by name with its unit, then the
// result object on a line of its own.
func printResult(w workload, p params, res result) {
	specs := reportedMetrics(p.trace)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v: %d ops, %d failed\n", w.name, p.seed, p.seconds, p.trace, res.Attempted, res.Failed)
	for _, m := range specs {
		fmt.Printf("%-16s %-42s %16.6f %s\n", w.name, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
