package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesExclusive(t *testing.T) {
	ramp := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartiles(ramp), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{4}), [3]float64{4, 4, 4}; got != want {
		t.Errorf("quartiles of one value = %v, want %v", got, want)
	}
}

// TestPairsMatchesRunsInOrder checks the paired summary: runs pair up
// by benchmark (across GOMAXPROCS suffixes) and by order, a win is a
// pair whose change run is lower, and a benchmark or metric one side
// lacks is left out.
func TestPairsMatchesRunsInOrder(t *testing.T) {
	const base = `pkg: chaos/internal/partition
BenchmarkHotX-2   1   10 ns/op   5 allocs/op
BenchmarkHotX-2   1   12 ns/op   5 allocs/op
BenchmarkHotOnlyBase-2   1   7 ns/op
BenchmarkHotX-2   1   11 ns/op   5 allocs/op
BenchmarkHotX-2   1   13 ns/op   5 allocs/op
BenchmarkHotX-2   1    9 ns/op   5 allocs/op
`
	const change = `pkg: chaos/internal/partition
BenchmarkHotX-8   1    8 ns/op   4 allocs/op
BenchmarkHotX-8   1   13 ns/op   4 allocs/op
BenchmarkHotX-8   1    9 ns/op   4 allocs/op
BenchmarkHotX-8   1   10 ns/op   4 allocs/op
BenchmarkHotX-8   1    8 ns/op   4 allocs/op
BenchmarkHotX-8   1    1 ns/op   4 allocs/op
`
	b, err := parse(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parse(strings.NewReader(change))
	if err != nil {
		t.Fatal(err)
	}
	rows := pairs(b, c)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want allocs/op and ns/op of HotX: %+v", len(rows), rows)
	}
	allocs, ns := rows[0], rows[1]
	if allocs.metric != "allocs/op" || allocs.pairs != 5 || allocs.wins != 5 || allocs.base[1] != 5 || allocs.change[1] != 4 {
		t.Errorf("allocs/op row = %+v", allocs)
	}
	if ns.key != "chaos/internal/partition BenchmarkHotX" || ns.metric != "ns/op" || ns.pairs != 5 || ns.wins != 4 {
		t.Errorf("ns/op row = %+v", ns)
	}
	if want := [3]float64{9.5, 11, 12.5}; ns.base != want {
		t.Errorf("base quartiles = %v, want %v", ns.base, want)
	}
	if want := [3]float64{8, 9, 11.5}; ns.change != want {
		t.Errorf("change quartiles = %v, want %v", ns.change, want)
	}
	var out bytes.Buffer
	printPairs(&out, rows)
	if s := out.String(); !strings.Contains(s, "-18.2%") || !strings.Contains(s, "4/5") || !strings.Contains(s, "27.3%") {
		t.Errorf("table lacks the shift, the base IQR or the win count:\n%s", s)
	}
}
