package partition

import (
	"math"

	"chaos/internal/csr"
	"chaos/internal/xrand"
)

// subgraph is the serial spectral and multilevel machinery's view of
// an induced or contracted graph: a csr.Graph that always carries
// vertex weights (Induce and Contract fill them), plus the original id
// of each vertex (vertex i corresponds to orig[i] in the parent graph).
// Edge weights are nil on an induced uncoarsened graph; coarsened
// graphs carry the aggregated multiplicity of the fine edges each
// coarse edge represents.
type subgraph struct {
	csr.Graph
	orig []int
	// flops accumulates the floating-point work performed on this
	// subgraph so the caller can charge the virtual clock.
	flops int64
}

// totalWeight sums the vertex weights of the subgraph.
func (sg *subgraph) totalWeight() float64 {
	t := 0.0
	for _, w := range sg.Weights {
		t += w
	}
	return t
}

// laplacianMatVec computes y = L x where L = D - A is the (weighted)
// combinatorial Laplacian of the subgraph.
func (sg *subgraph) laplacianMatVec(x, y []float64) {
	n := sg.Len()
	// The unweighted kernel is not the weighted one with unit weights:
	// it sums in another order, so each keeps its own loop.
	if sg.EdgeW == nil {
		for i := 0; i < n; i++ {
			deg := float64(sg.XAdj[i+1] - sg.XAdj[i])
			s := deg * x[i]
			for _, j := range sg.Adj[sg.XAdj[i]:sg.XAdj[i+1]] {
				s -= x[j]
			}
			y[i] = s
		}
	} else {
		for i := 0; i < n; i++ {
			deg, s := 0.0, 0.0
			for k := sg.XAdj[i]; k < sg.XAdj[i+1]; k++ {
				deg += sg.EdgeW[k]
				s -= sg.EdgeW[k] * x[sg.Adj[k]]
			}
			y[i] = s + deg*x[i]
		}
	}
	sg.flops += int64(2*len(sg.Adj) + 2*n)
}

// fiedlerMaxRestarts bounds the implicit-restart iterations of the
// capped Lanczos solve: each restart re-runs the full sweep, so the
// cap also bounds the worst-case flop charge at 1+fiedlerMaxRestarts
// sweeps.
const fiedlerMaxRestarts = 2

// fiedlerRestartTol is the relative Ritz-residual threshold
// (resid / theta) above which a cap-limited sweep is considered
// unconverged and restarted. Heavy multi-edge coarse graphs — whose
// clustered edge weights spread the Laplacian spectrum — routinely
// blow through this at depth 60; well-conditioned meshes mostly stay
// under it.
const fiedlerRestartTol = 0.25

// fiedler approximates the Fiedler vector (eigenvector of the second
// smallest Laplacian eigenvalue) with a Lanczos iteration that is kept
// orthogonal to the constant vector and fully reorthogonalized, then
// solves the small tridiagonal eigenproblem with an implicit-shift QL
// sweep. When the Krylov depth cap (60) is hit without the Fiedler
// pair converging — the ill-conditioned heavy multi-edge coarse
// graphs of the multilevel ladder — the iteration restarts from the
// best Ritz vector instead of returning it as-is, up to
// fiedlerMaxRestarts times. Deterministic: the start vector comes
// from a seeded stream.
func (sg *subgraph) fiedler(seed uint64) []float64 {
	return sg.fiedlerRestarted(seed, fiedlerMaxRestarts)
}

// fiedlerRestarted is fiedler with an explicit restart budget;
// maxRestarts = 0 reproduces the historical single-sweep behavior
// (kept callable for the regression tests).
func (sg *subgraph) fiedlerRestarted(seed uint64, maxRestarts int) []float64 {
	n := sg.Len()
	if n <= 2 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	// Krylov depth grows with subgraph size; larger meshes need more
	// steps for the Fiedler pair to settle.
	m := 30
	if n > 1000 {
		m = 60
	}
	capped := m == 60 && m < n-1
	if m > n-1 {
		m = n - 1
	}
	rng := xrand.New(seed)

	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	projectOutConstant(v)
	normalize(v)

	out, theta, resid := sg.lanczosSweep(v, m)
	if capped {
		for r := 0; r < maxRestarts && resid > fiedlerRestartTol*math.Abs(theta); r++ {
			// Restart from the best Ritz vector: the sweep's Krylov
			// space is re-seeded with its own best approximation, so
			// each restart contracts toward the Fiedler pair without
			// growing the basis past the cap. The restarted space
			// contains its seed, so the Ritz value (the Rayleigh
			// quotient, which the median split's quality rides on) is
			// non-increasing in exact arithmetic; the guard below
			// keeps the previous vector if roundoff breaks that.
			v = append(v[:0], out...)
			projectOutConstant(v)
			normalize(v)
			out2, theta2, resid2 := sg.lanczosSweep(v, m)
			if theta2 >= theta {
				break
			}
			out, theta, resid = out2, theta2, resid2
		}
	}
	return out
}

// lanczosSweep runs one depth-m Lanczos iteration from start vector v
// (unit norm, orthogonal to the constant vector; not modified) and
// returns the best Ritz vector together with its Ritz value theta and
// residual-norm estimate ‖L y − θ y‖ ≈ β_m |z_m| used by the restart
// logic.
func (sg *subgraph) lanczosSweep(v0 []float64, m int) (out []float64, theta, resid float64) {
	n := sg.Len()

	basis := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m) // beta[k] links basis[k] and basis[k+1]
	lastB := 0.0                  // the β that would extend the basis past its end

	v := append([]float64(nil), v0...)
	work := make([]float64, n)
	for k := 0; k < m; k++ {
		basis = append(basis, append([]float64(nil), v...))
		sg.laplacianMatVec(v, work)
		a := dot(work, v)
		alpha = append(alpha, a)
		// w = L v - a v - b v_{k-1}
		for i := range work {
			work[i] -= a * v[i]
		}
		if k > 0 {
			b := beta[k-1]
			prev := basis[k-1]
			for i := range work {
				work[i] -= b * prev[i]
			}
		}
		// Full reorthogonalization (constant vector + all basis).
		projectOutConstant(work)
		for _, u := range basis {
			d := dot(work, u)
			for i := range work {
				work[i] -= d * u[i]
			}
		}
		sg.flops += int64((len(basis) + 3) * 2 * n)
		b := math.Sqrt(dot(work, work))
		lastB = b
		if b < 1e-12 {
			break // invariant subspace found
		}
		if k < m-1 {
			beta = append(beta, b)
			for i := range v {
				v[i] = work[i] / b
			}
		}
	}

	k := len(alpha)
	d := append([]float64(nil), alpha...)
	e := make([]float64, k)
	copy(e[1:], beta[:k-1])
	z := identity(k)
	tql2(d, e, z)
	sg.flops += int64(k * k * 30)

	// Smallest Ritz value (the constant direction was projected out,
	// so this approximates the Fiedler pair).
	best := 0
	for i := 1; i < k; i++ {
		if d[i] < d[best] {
			best = i
		}
	}
	out = make([]float64, n)
	for j := 0; j < k; j++ {
		c := z[j][best]
		if c == 0 {
			continue
		}
		u := basis[j]
		for i := 0; i < n; i++ {
			out[i] += c * u[i]
		}
	}
	sg.flops += int64(2 * k * n)
	// The classic Lanczos error bound: the Ritz pair's residual norm
	// equals the next β times the last component of the tridiagonal
	// eigenvector.
	return out, d[best], lastB * math.Abs(z[k-1][best])
}

func projectOutConstant(v []float64) {
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
}

func normalize(v []float64) {
	nrm := math.Sqrt(dot(v, v))
	if nrm == 0 {
		return
	}
	for i := range v {
		v[i] /= nrm
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func identity(n int) [][]float64 {
	z := make([][]float64, n)
	for i := range z {
		z[i] = make([]float64, n)
		z[i][i] = 1
	}
	return z
}

// tql2 diagonalizes a symmetric tridiagonal matrix with diagonal d and
// subdiagonal e (e[0] unused) using the implicit QL method with shifts
// (EISPACK TQL2). On return d holds eigenvalues and column j of z the
// corresponding eigenvector. Panics only if the iteration fails to
// converge, which for the small matrices used here does not occur.
func tql2(d, e []float64, z [][]float64) {
	n := len(d)
	if n == 0 {
		return
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= 50 {
				panic("partition: tql2 failed to converge")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f := z[k][i+1]
					z[k][i+1] = s*z[k][i] + c*f
					z[k][i] = c*z[k][i] - s*f
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
}
