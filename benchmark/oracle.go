package main

import (
	"fmt"
	"math"
)

// The oracles recompute, independently of the system under test, what
// an operation should have produced. An operation that fails one is
// counted as failed exactly like one that returned an error.

// recount returns the number of edges of (e1, e2) whose endpoints lie
// in different parts, and the heaviest part's size over the ideal
// n/nparts. Self-loops never count as cut.
func recount(e1, e2, part []int, nparts int) (cut int, imbalance float64) {
	for i := range e1 {
		if e1[i] != e2[i] && part[e1[i]] != part[e2[i]] {
			cut++
		}
	}
	sizes := make([]int, nparts)
	for _, q := range part {
		sizes[q]++
	}
	heaviest := 0
	for _, s := range sizes {
		if s > heaviest {
			heaviest = s
		}
	}
	return cut, float64(heaviest) * float64(nparts) / float64(len(part))
}

// checkPartition is the partition oracle: every vertex assigned to a
// part in [0, nparts), the heaviest part within tol of ideal (plus the
// one vertex integer rounding can cost), and — when the system reported
// a cut (reported >= 0) — that cut equal to the benchmark's recount.
func checkPartition(e1, e2, part []int, n, nparts int, tol float64, reported int) (cut int, imbalance float64, err error) {
	if len(part) != n {
		return 0, 0, fmt.Errorf("partition has %d entries, want %d", len(part), n)
	}
	for v, q := range part {
		if q < 0 || q >= nparts {
			return 0, 0, fmt.Errorf("vertex %d assigned to part %d, want [0,%d)", v, q, nparts)
		}
	}
	cut, imbalance = recount(e1, e2, part, nparts)
	if limit := 1 + tol + float64(nparts)/float64(n); imbalance > limit {
		return cut, imbalance, fmt.Errorf("imbalance %.4f exceeds %.4f", imbalance, limit)
	}
	if reported >= 0 && reported != cut {
		return cut, imbalance, fmt.Errorf("reported cut %d, recount %d", reported, cut)
	}
	return cut, imbalance, nil
}

// eulerSweep is the serial reference of one Euler edge sweep: the
// contribution every vertex's y receives from one pass over all edges.
func eulerSweep(e1, e2 []int, x []float64, kernel func(int, []float64, []float64)) []float64 {
	y := make([]float64, len(x))
	in, out := make([]float64, 2), make([]float64, 2)
	for i := range e1 {
		in[0], in[1] = x[e1[i]], x[e2[i]]
		kernel(i, in, out)
		y[e1[i]] += out[0]
		y[e2[i]] += out[1]
	}
	return y
}

// checkEuler is the Euler oracle: after steps executor steps the
// distributed y must equal steps serial sweeps to 1e-9 relative.
func checkEuler(y, sweep []float64, steps int) error {
	if len(y) != len(sweep) {
		return fmt.Errorf("y has %d entries, want %d", len(y), len(sweep))
	}
	for v := range y {
		want := float64(steps) * sweep[v]
		if diff := math.Abs(y[v] - want); !(diff <= 1e-9*math.Max(1, math.Abs(want))) {
			return fmt.Errorf("y[%d] = %.12g after %d steps, serial sweep gives %.12g", v, y[v], steps, want)
		}
	}
	return nil
}
