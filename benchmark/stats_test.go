package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 { // n, n-1, ..., 1: unsorted on purpose
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestFloorMean(t *testing.T) {
	cases := []struct {
		name    string
		xs      []float64
		min     int
		want    float64
		wantErr bool
	}{
		{"ten fastest of 100", ramp(100), minFloorSamples, 5.5, false},
		{"ten fastest of 1000", ramp(1000), minFloorSamples, 5.5, false},
		{"fastest hundredth of 5000", ramp(5000), minFloorSamples, 25.5, false},
		{"one slow outlier is ignored", append(ramp(100), 1e9), minFloorSamples, 5.5, false},
		{"99 samples refused", ramp(99), minFloorSamples, 0, true},
		{"empty refused even with min 0", nil, 0, 0, true},
		{"fewer than ten samples: all of them", ramp(6), quickFloorSamples, 3.5, false},
		{"quick minimum refused below", ramp(quickFloorSamples - 1), quickFloorSamples, 0, true},
	}
	for _, c := range cases {
		got, err := floorMean(c.xs, c.min)
		if (err != nil) != c.wantErr || !near(got, c.want) {
			t.Errorf("%s: floorMean = %v, %v; want %v, error %v", c.name, got, err, c.want, c.wantErr)
		}
	}
}

func TestWeightedGeoMean(t *testing.T) {
	cases := []struct {
		name    string
		xs, ws  []float64
		want    float64
		wantErr bool
	}{
		{"single kind is its floor", []float64{2.5}, []float64{1}, 2.5, false},
		{"equal shares", []float64{1, 100}, []float64{0.5, 0.5}, 10, false},
		{"service mix shares", []float64{100, 1, 50, 100}, []float64{1, 4, 1, 1}, math.Exp((math.Log(100)*2 + math.Log(50)) / 7), false},
		{"weights need not sum to one", []float64{4, 9}, []float64{2, 2}, 6, false},
		{"zero value refused", []float64{0, 1}, []float64{1, 1}, 0, true},
		{"length mismatch refused", []float64{1}, []float64{1, 1}, 0, true},
		{"zero total weight refused", []float64{1, 2}, []float64{0, 0}, 0, true},
	}
	for _, c := range cases {
		got, err := weightedGeoMean(c.xs, c.ws)
		if (err != nil) != c.wantErr || !near(got, c.want) {
			t.Errorf("%s: weightedGeoMean = %v, %v; want %v, error %v", c.name, got, err, c.want, c.wantErr)
		}
	}
	// The point of the geometric mean: 10 % off any kind moves it by
	// that kind's share of 10 %, however cheap the kind is.
	base, _ := weightedGeoMean([]float64{100, 1}, []float64{3, 4})
	fast, _ := weightedGeoMean([]float64{100, 0.9}, []float64{3, 4})
	if want := math.Pow(0.9, 4.0/7); !near(fast/base, want) {
		t.Errorf("10 %% off the cheap kind moved the mean by %v, want %v", fast/base, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	cases := []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {90, 37}, {-5, 10}, {120, 40},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestIQRShare(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := iqrShare(ramp(10)), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := iqrShare([]float64{16, 1, 8, 2, 4}), (12.0-1.5)/4; !near(got, want) {
		t.Errorf("iqrShare(powers of two) = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("iqrShare of a constant = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50},  // overlaps span 2: 10..50 covered once
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // sticks out: clipped to the parent
		{ID: 5, Parent: 3, StartNS: 25, EndNS: 35},  // grandchild: only span 3 loses it
		{ID: 6, StartNS: 200, EndNS: 260},           // no children
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 60}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestRegressed(t *testing.T) {
	lower := metricSpec{Name: "op_ms_floor", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops", Better: "higher", Bound: 0.10}
	failed := metricSpec{Name: "failed", Better: "lower"}
	cases := []struct {
		name       string
		m          metricSpec
		base, cand float64
		want       bool
	}{
		{"equal", lower, 10, 10, false},
		{"better", lower, 10, 5, false},
		{"worse inside the bound", lower, 10, 10.9, false},
		{"worse exactly at the bound", lower, 10, 11, false},
		{"worse past the bound", lower, 10, 11.1, true},
		{"higher is better: drop inside the bound", higher, 100, 91, false},
		{"higher is better: drop past the bound", higher, 100, 89, true},
		{"higher is better: rise", higher, 100, 150, false},
		{"absolute rule: no failures on either side", failed, 0, 0, false},
		{"absolute rule: one new failure", failed, 0, 1, true},
		{"zero bound: any worsening", failed, 3, 4, true},
		{"zero bound: fewer failures", failed, 3, 2, false},
	}
	for _, c := range cases {
		if got := regressed(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s: regressed(%v -> %v) = %v, want %v", c.name, c.base, c.cand, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	spec := benchmarkSpec{EndToEnd: []metricSpec{
		{Name: "op_ms_floor", Better: "lower", Bound: 0.10},
		{Name: "edge_cut", Better: "lower", Bound: 0.01},
	}}
	set := func(floor, cut, failed []float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {"op_ms_floor": floor, "edge_cut": cut, "failed": failed}}
	}
	base := set([]float64{10, 11, 9}, []float64{500, 500, 500}, []float64{0, 0, 0})
	verdicts := func(cand map[string]map[string][]float64) map[string]bool {
		out := map[string]bool{}
		for _, r := range compareSets(spec, base, cand) {
			out[r.metric] = r.fail
		}
		return out
	}
	if v := verdicts(base); v["op_ms_floor"] || v["edge_cut"] || v["failed"] || len(v) != 3 {
		t.Errorf("A/A comparison: %v, want three passes", v)
	}
	// Medians decide: one slow run in three is not a regression.
	if v := verdicts(set([]float64{10, 10.5, 30}, []float64{500, 504, 500}, []float64{0, 0, 0})); v["op_ms_floor"] || v["edge_cut"] {
		t.Errorf("one outlier run: %v, want passes", v)
	}
	if v := verdicts(set([]float64{12, 12, 12}, []float64{506, 506, 506}, []float64{0, 1, 1})); !v["op_ms_floor"] || !v["edge_cut"] || !v["failed"] {
		t.Errorf("20 %% slower, 1.2 %% more cut, failing ops: %v, want three failures", v)
	}
	if rows := compareSets(spec, base, map[string]map[string][]float64{"other": {}}); len(rows) != 0 {
		t.Errorf("disjoint workloads compared: %v", rows)
	}
}
