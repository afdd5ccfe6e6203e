package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// quickParams are the -quick sizes with a schedule a fraction of a
// second long: enough to run every code path, too little to time
// anything.
func quickParams(t *testing.T, seed uint64, trace bool) params {
	return params{seed: seed, seconds: 0.2, trace: trace, quick: true, tmpDir: t.TempDir()}
}

// exactMetrics are the end-to-end metrics that count instead of time:
// two runs at one seed must agree on them to the last digit.
var exactMetrics = []string{"virtual_s_per_op", "virtual_setup_s", "edge_cut", "imbalance"}

// TestDeterminismAndSmoke runs every workload twice at one seed and
// once at another, at -quick sizes: every oracle passes, the counted
// metrics repeat exactly at a fixed seed, and the seed does reach the
// inputs.
func TestDeterminismAndSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func(seed uint64) result {
				res, _, err := runWorkload(w, quickParams(t, seed, false))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < quickFloorSamples*len(w.kinds) {
					t.Fatalf("seed %d: correct %v, %d of %d ops failed", seed, res.Correct, res.Failed, res.Attempted)
				}
				for _, m := range endToEndMetrics {
					if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
						t.Errorf("seed %d: metric %s = %+v, want a positive value in %s", seed, m.Name, v, m.Unit)
					}
				}
				if len(res.Metrics) != len(endToEndMetrics) {
					t.Errorf("seed %d: %d metrics reported, want %d", seed, len(res.Metrics), len(endToEndMetrics))
				}
				return res
			}
			a, b, other := run(1993), run(1993), run(7)
			if a.Attempted != b.Attempted {
				t.Errorf("op count %d then %d at one seed", a.Attempted, b.Attempted)
			}
			moved := false
			for _, name := range exactMetrics {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s = %v then %v at one seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
				moved = moved || a.Metrics[name] != other.Metrics[name]
			}
			if !moved {
				t.Errorf("seed 7 reproduced every counted metric of seed 1993: the seed does not reach the inputs")
			}
		})
	}
}

// TestTracedRun checks a traced run of every workload: all per-layer
// metrics reported, the layers it drives non-zero, the served-class
// counts exact, and the span file well formed.
func TestTracedRun(t *testing.T) {
	drives := map[string][]string{
		"euler_reuse":    {"mesh.generate_ms", "partition.rcb_ms", "schedule.gather_us", "core.inspect_ms", "registry.hits", "kind.reuse_step.op_ms_floor", "lang.compile_us"},
		"euler_noreuse":  {"ttable.build_ms", "schedule.build_gather_allocs", "core.noreuse_inspect_share", "kind.noreuse_step.virtual_s"},
		"partition_cold": {"geocol.ghost_new_ms", "geocol.build_coarse_ms", "partition.cut_ml_serial", "partition.ml_dist8_virtual_s", "partition.stream_cut_ratio", "stream.decode_mb_s", "kind.stream.cut"},
		"service_mix":    {"service.inproc_repeat_us", "service.request_kb", "service.served_warm", "partition.ml_warm_over_cold", "partition.ml_ladder_mb", "kind.delta_chain.allocs"},
	}
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, tr, err := runWorkload(w, quickParams(t, 1993, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			specs := perLayerMetrics()
			if len(res.Metrics) != len(specs) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(specs))
			}
			always := []string{"machine.barrier_us", "machine.alltoall_allocs", "host.spin_ms_p50", "wall.op_ms_p50", "wall.cpu_ms_per_op"}
			for _, name := range append(always, drives[w.name]...) {
				if v, ok := res.Metrics[name]; !ok || !(v.Value > 0) {
					t.Errorf("%s = %+v, want a positive value", name, v)
				}
			}
			if w.name == "service_mix" {
				gens := float64(res.Attempted / 7)
				for name, want := range map[string]float64{"service.served_hit": 4 * gens, "service.served_cold": 2 * gens,
					"service.served_warm": gens, "service.served_shared": 0, "service.rejected": 0, "service.warm_ratio": 0.5} {
					if got := res.Metrics[name].Value; got != want {
						t.Errorf("%s = %v, want %v over %v generations", name, got, want, gens)
					}
				}
			}
			if w.name == "euler_reuse" {
				// Every timed, warm-up and probe step reuses; only the set-up's first step inspects.
				if hits, misses := res.Metrics["registry.hits"].Value, res.Metrics["registry.misses"].Value; hits != float64(res.Attempted+2) || misses != 1 {
					t.Errorf("reuse guard: %v hits, %v misses over %d timed ops; want %d and 1", hits, misses, res.Attempted, res.Attempted+2)
				}
			}

			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := tr.writeFile(path); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ids, ops := map[int]bool{}, 0
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if s.ID != len(ids)+1 || s.EndNS < s.StartNS || s.Workload != w.name || (s.Parent != 0 && s.Parent == s.ID) {
					t.Fatalf("malformed span %+v", s)
				}
				ids[s.ID] = true
				if s.Name == "op" {
					ops++
				}
			}
			if want := res.Attempted / 2; ops != want {
				t.Errorf("%d op spans, want %d (every other round of %d ops)", ops, want, res.Attempted)
			}
			if len(ids) <= ops {
				t.Errorf("%d spans for %d ops: the calls inside the ops left none", len(ids), ops)
			}
		})
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metric catalogue in step, and the file inside the driver's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs from the catalogue:\n%+v\n%+v", doc.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerMetrics()) {
		t.Errorf("per_layer differs from the catalogue")
	}
	var listed, want []struct{ Name, Why string }
	for _, w := range doc.Workloads {
		listed = append(listed, w)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads() {
		want = append(want, struct{ Name, Why string }{w.name, w.why})
	}
	if !reflect.DeepEqual(listed, want) {
		t.Errorf("workloads %v, want %v", listed, want)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", n)
	}
	largest := 0.0
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), doc.EndToEnd...), doc.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || m.Bound > 0.25 {
			t.Errorf("metric %+v: duplicate name or outside the driver's limits", m)
		}
		seen[m.Name] = true
		if m.Bound > largest {
			largest = m.Bound
		}
	}
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must carry the largest bound (%v), has %+v", largest, doc.EndToEnd[0])
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, file size %d", doc.RunSeconds, len(raw))
	}
	keys := map[string]any{}
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Errorf("top-level keys %v, want %v", got, want)
	}
}
