package partition

import (
	"math"
	"testing"

	"chaos/internal/csr"
)

// contractedMultigraph builds the ill-conditioned input of the
// restart regression: a fine ring of 2-vertex clusters is contracted
// (csr.Scratch.Contract) so parallel fine edges merge into heavy coarse
// multi-edges — every 7th ring link carries 4 fine edges, the rest
// one — yielding a >1000-vertex weighted cycle whose clustered
// spectrum stalls the depth-capped Lanczos sweep.
func contractedMultigraph(nc int) *subgraph {
	n := 2 * nc
	type edge struct{ u, v int }
	var edges []edge
	add := func(u, v int) { edges = append(edges, edge{u, v}, edge{v, u}) }
	for k := 0; k < nc; k++ {
		a, b := 2*k, 2*k+1
		c, d := (2*k+2)%n, (2*k+3)%n
		add(a, b) // intra-cluster: vanishes under contraction
		add(b, c) // ring link, weight 1
		if k%7 == 0 {
			// Three extra parallel fine edges: coarse weight 4.
			add(a, c)
			add(b, d)
			add(a, d)
		}
	}
	xadj := make([]int, n+1)
	for _, e := range edges {
		xadj[e.u+1]++
	}
	for i := 0; i < n; i++ {
		xadj[i+1] += xadj[i]
	}
	adj := make([]int, len(edges))
	next := append([]int(nil), xadj[:n]...)
	for _, e := range edges {
		adj[next[e.u]] = e.v
		next[e.u]++
	}
	cmap := make([]int, n)
	for i := range cmap {
		cmap[i] = i / 2
	}
	orig := make([]int, nc)
	for i := range orig {
		orig[i] = i
	}
	return &subgraph{Graph: new(csr.Scratch).Contract(&csr.Graph{XAdj: xadj, Adj: adj}, cmap, nc), orig: orig}
}

// rayleigh returns the Rayleigh quotient of the normalized,
// constant-projected copy of v — the quantity the Fiedler
// approximation is judged by (smaller = closer to λ2, since the
// iterate is orthogonal to the constant nullspace vector).
func rayleigh(sg *subgraph, v []float64) float64 {
	y := append([]float64(nil), v...)
	projectOutConstant(y)
	normalize(y)
	ly := make([]float64, sg.Len())
	sg.laplacianMatVec(y, ly)
	return dot(y, ly)
}

// relResidual measures ‖L y − θ y‖ / θ for the normalized,
// constant-projected Rayleigh pair of v.
func relResidual(sg *subgraph, v []float64) float64 {
	y := append([]float64(nil), v...)
	projectOutConstant(y)
	normalize(y)
	ly := make([]float64, sg.Len())
	sg.laplacianMatVec(y, ly)
	theta := dot(y, ly)
	r := 0.0
	for i := range ly {
		d := ly[i] - theta*y[i]
		r += d * d
	}
	return math.Sqrt(r) / theta
}

// TestFiedlerRestartsOnContractedMultigraph pins the Lanczos restart
// behavior (ROADMAP "Lanczos restarts on the coarsest graph"): on a
// contracted heavy multi-edge graph whose depth-60 sweep does not
// converge, restarting from the best Ritz vector must tighten the
// Fiedler approximation — a strictly smaller Rayleigh quotient —
// instead of returning the unconverged vector as-is.
func TestFiedlerRestartsOnContractedMultigraph(t *testing.T) {
	sg := contractedMultigraph(1400)
	seed := uint64(12345)

	single := sg.fiedlerRestarted(seed, 0)
	if r := relResidual(sg, single); r <= fiedlerRestartTol {
		t.Fatalf("single sweep already converged (rel residual %.4f <= %.2f); the regression graph is too easy",
			r, fiedlerRestartTol)
	}
	raySingle := rayleigh(sg, single)

	restarted := sg.fiedler(seed)
	rayRestarted := rayleigh(sg, restarted)
	if rayRestarted >= raySingle {
		t.Errorf("restarts did not improve the Fiedler approximation: Rayleigh %.6g (restarted) vs %.6g (single sweep)",
			rayRestarted, raySingle)
	}
	if rayRestarted > 0.8*raySingle {
		t.Errorf("restarts barely helped: Rayleigh %.6g vs single-sweep %.6g (want <= 80%%)",
			rayRestarted, raySingle)
	}
}

// TestFiedlerNoRestartBelowCap pins that graphs under the depth cap
// (n <= 1000, Krylov depth 30 < cap) keep the historical single-sweep
// result bit-for-bit: restarts only engage when the cap is hit.
func TestFiedlerNoRestartBelowCap(t *testing.T) {
	sg := contractedMultigraph(400)
	seed := uint64(777)
	a := sg.fiedlerRestarted(seed, 0)
	b := sg.fiedler(seed)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fiedler changed below the cap at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
