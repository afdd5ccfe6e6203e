package mesh

import (
	"math"
	"testing"

	"chaos/internal/kernel"
	"chaos/internal/xrand"
)

func TestGenerateSizes(t *testing.T) {
	m := Generate(1000, 1)
	if m.NNode != 1000 {
		t.Errorf("NNode = %d, want 1000", m.NNode)
	}
	if m.NEdge() == 0 {
		t.Fatal("no edges")
	}
	// Tetrahedral-ish connectivity: average degree between 8 and 12
	// (boundary effects lower it below the interior value of 12).
	if d := m.AvgDegree(); d < 7 || d > 12 {
		t.Errorf("AvgDegree = %v", d)
	}
}

func TestEdgesValid(t *testing.T) {
	m := Generate(512, 2)
	for i := range m.E1 {
		if m.E1[i] < 0 || m.E1[i] >= m.NNode || m.E2[i] < 0 || m.E2[i] >= m.NNode {
			t.Fatalf("edge %d endpoints (%d,%d) out of range", i, m.E1[i], m.E2[i])
		}
		if m.E1[i] == m.E2[i] {
			t.Fatalf("self-loop at edge %d", i)
		}
	}
}

func TestEdgesAreGeometricallyLocal(t *testing.T) {
	// Connected vertices must be close in space even after the random
	// renumbering (that's the whole point of the fixture). On the
	// curved shell the outermost arc spacing stretches edges up to
	// about 1 + pi times the unit lattice step.
	m := Generate(729, 3)
	domain := 2 * (float64(9)/math.Pi + 9) // shell diameter for a 9^3 lattice
	for i := range m.E1 {
		a, b := m.E1[i], m.E2[i]
		dx := m.X[a] - m.X[b]
		dy := m.Y[a] - m.Y[b]
		dz := m.Z[a] - m.Z[b]
		d := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if d > 7.5 {
			t.Fatalf("edge %d spans distance %v", i, d)
		}
		if d > domain/3 {
			t.Fatalf("edge %d spans a third of the domain (%v of %v)", i, d, domain)
		}
	}
}

func TestRenumberingScattersIndices(t *testing.T) {
	// A BLOCK split of vertex ids must cut most edges: adjacent ids
	// should rarely be mesh neighbors.
	m := Generate(1728, 4)
	half := m.NNode / 2
	cut := 0
	for i := range m.E1 {
		if (m.E1[i] < half) != (m.E2[i] < half) {
			cut++
		}
	}
	frac := float64(cut) / float64(m.NEdge())
	if frac < 0.3 {
		t.Errorf("block split cuts only %.2f of edges; renumbering too tame", frac)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(343, 9)
	b := Generate(343, 9)
	if a.NEdge() != b.NEdge() {
		t.Fatal("edge counts differ")
	}
	for i := range a.E1 {
		if a.E1[i] != b.E1[i] || a.E2[i] != b.E2[i] {
			t.Fatal("edge lists differ")
		}
	}
	c := Generate(343, 10)
	same := true
	for i := range a.E1 {
		if a.E1[i] != c.E1[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical meshes")
	}
}

func TestEulerFlux(t *testing.T) {
	in := []float64{1, 3}
	out := make([]float64, 2)
	EulerFlux(0, in, out)
	// avg = 2, diff = 2: f = 4+1 = 5, g = 4-1 = 3.
	if out[0] != 5 || out[1] != 3 {
		t.Errorf("EulerFlux = %v", out)
	}
}

// EulerFlux's strip kernel gathers, computes and combines every edge
// of a strip bit for bit like the per-edge call followed by the same
// reductions in edge order: over strip lengths around the executor's
// 256, operands from the local section and from the ghosts, and both
// the hand-fused REDUCE(ADD) loop and the general one (MAX). In the
// first block every edge combines into slots of its own, started at the
// reduction's identity (-0 for ADD, so a -0 result keeps its sign), so
// each of its two results is checked on its own: every pair of inputs
// at the edges of the float64 range, and any bit pattern. In the second
// block finite inputs combine into a few slots hit repeatedly, which
// checks the order of accumulation.
func TestEulerFluxStripMatchesEdge(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324,
		0x1p-1022 - 0x1p-1074, 1e308, -1e308}
	const nLocal, nGhost, nShared = 40, 24, 16
	rng := xrand.New(47)
	edgy := make([]float64, nLocal+nGhost) // [local | ghost]
	finite := make([]float64, nLocal+nGhost)
	for i := range edgy {
		switch {
		case i%nLocal < len(special): // the specials lead both sections
			edgy[i] = special[i%nLocal]
		case i%2 == 0: // any bit pattern
			edgy[i] = math.Float64frombits(rng.Uint64())
		default:
			edgy[i] = 1e3 * (rng.Float64() - 0.5)
		}
		finite[i] = 1e3 * (rng.Float64() - 0.5)
	}
	ops := []struct {
		name string
		id   float64
		op   func(owned, contrib float64) float64
	}{
		{"ADD", math.Copysign(0, -1), func(o, c float64) float64 { return o + c }},
		{"MAX", math.Inf(-1), func(o, c float64) float64 {
			if c > o {
				return c
			}
			return o
		}},
	}
	for _, n := range []int{0, 1, 255, 256, 257} {
		edges := make([]int, n)
		var own, shared [4][]int // two reads, two writes
		for k := range own {
			own[k], shared[k] = make([]int, n), make([]int, n)
		}
		for b := range edges {
			edges[b] = 3 * b
			if p := b % 64; p < len(special)*len(special) { // every pair of specials
				own[0][b], own[1][b] = p/len(special), nLocal+p%len(special)
			} else {
				own[0][b], own[1][b] = rng.Intn(nLocal+nGhost), rng.Intn(nLocal+nGhost)
			}
			own[2][b], own[3][b] = b, b
			shared[0][b], shared[1][b] = rng.Intn(nLocal+nGhost), rng.Intn(nLocal+nGhost)
			shared[2][b], shared[3][b] = rng.Intn(nShared), rng.Intn(nShared)
		}
		for _, blk := range []struct {
			name string
			vals []float64
			refs [4][]int
			nBuf int
		}{{"own slots", edgy, own, n}, {"shared slots", finite, shared, nShared}} {
			for _, o := range ops {
				fill := func() []float64 {
					buf := make([]float64, blk.nBuf)
					for r := range buf {
						buf[r] = o.id
					}
					return buf
				}
				src := func(ref []int) kernel.Source {
					return kernel.Source{Vals: blk.vals, Ref: ref}
				}
				st := &kernel.Strip{Iters: edges,
					Reads: []kernel.Source{src(blk.refs[0]), src(blk.refs[1])},
					Writes: []kernel.Target{
						{Buf: fill(), Ref: blk.refs[2], Add: o.name == "ADD", Op: o.op},
						{Buf: fill(), Ref: blk.refs[3], Add: o.name == "ADD", Op: o.op}}}
				EulerFlux.Strip(st)
				want := [2][]float64{fill(), fill()}
				in, out := make([]float64, 2), make([]float64, 2)
				for b, e := range edges {
					in[0], in[1] = blk.vals[blk.refs[0][b]], blk.vals[blk.refs[1][b]]
					EulerFlux(e, in, out)
					for k := range want {
						r := blk.refs[2+k][b]
						want[k][r] = o.op(want[k][r], out[k])
					}
				}
				for k := range want {
					for r, w := range want[k] {
						if got := st.Writes[k].Buf[r]; math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("n=%d %s %s write %d slot %d: strip %v (%#x), per edge %v (%#x)",
								n, blk.name, o.name, k, r, got, math.Float64bits(got), w, math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}

func TestInitialStateBounded(t *testing.T) {
	m := Generate(216, 5)
	for v := 0; v < m.NNode; v++ {
		s := m.InitialState(v)
		if s < 0.8 || s > 1.2 {
			t.Fatalf("InitialState(%d) = %v", v, s)
		}
	}
}

func TestGenerateLatticeDims(t *testing.T) {
	m := GenerateLattice(3, 4, 5, 1)
	if m.NNode != 60 {
		t.Errorf("NNode = %d, want 60", m.NNode)
	}
}

func TestGeneratePanicsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(2, 1)
}

func TestSlabsBalancedAndLocal(t *testing.T) {
	m := Generate(10000, 3)
	const p = 8
	owner := m.Slabs(p)
	count := make([]int, p)
	for _, o := range owner {
		count[o]++ // panics when out of [0, p)
	}
	for r, n := range count {
		if ideal := m.NNode / p; n < ideal || n > ideal+1 {
			t.Errorf("slab %d holds %d vertices, ideal %d", r, n, ideal)
		}
	}
	for e := range m.E1 {
		if d := owner[m.E1[e]] - owner[m.E2[e]]; d < -1 || d > 1 {
			t.Fatalf("edge %d links slabs %d and %d", e, owner[m.E1[e]], owner[m.E2[e]])
		}
	}
}
