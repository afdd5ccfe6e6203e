package partition

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/xrand"
)

// pipelinePin is one recorded outcome of a ladder-pipeline entry point:
// the FNV-1a hash of the gathered part vector and the bits of the run's
// Stats.MaxClock (graph build and the final gather included — both are
// deterministic).
type pipelinePin struct{ hash, clock uint64 }

// pipelineOps are the two entry points of the MULTILEVEL ladder
// pipeline, each run from a freshly built graph inside one machine run.
// rewired is the same mesh after a further ~2% edge rewire, the input
// of the warm path.
var pipelineOps = []struct {
	name string
	run  func(c *machine.Ctx, ml Multilevel, nparts int, build func(m *mesh.Mesh) *geocol.Graph, m, rewired *mesh.Mesh) []int
}{
	{"cold", func(c *machine.Ctx, ml Multilevel, nparts int, build func(*mesh.Mesh) *geocol.Graph, m, _ *mesh.Mesh) []int {
		part, _ := ml.PartitionLadder(c, build(m), nparts)
		return part
	}},
	{"warm", func(c *machine.Ctx, ml Multilevel, nparts int, build func(*mesh.Mesh) *geocol.Graph, m, rewired *mesh.Mesh) []int {
		part, ld := ml.PartitionLadder(c, build(m), nparts)
		return ml.Repartition(c, build(rewired), nparts, ld, part)
	}},
}

// rewire returns m with a deterministic fraction 1/every of its edges
// given a new, xrand-chosen second endpoint (long-range edges,
// occasional self-loops and multi-edges: nothing a lattice has).
func rewire(m *mesh.Mesh, every int, salt uint64) *mesh.Mesh {
	out := *m
	out.E1 = append([]int(nil), m.E1...)
	out.E2 = append([]int(nil), m.E2...)
	n := len(out.E1)
	for i := 0; i < n/every; i++ {
		j := int(xrand.Hash64(salt<<32|uint64(i)) % uint64(n))
		out.E2[j] = int(xrand.Hash64(salt<<40|uint64(i)+1) % uint64(m.NNode))
	}
	return &out
}

// TestLadderPipelinePins is the characterization test of the ladder
// pipeline: the exact partition and the exact virtual makespan of the
// cold and warm entry points, on the benchmark's lattice at the default
// knobs and on a rewired mesh with the knobs lowered so the ladder is
// several levels deep and matching can stall above ParallelThreshold,
// at P in {1, 3, 8} on both backends. In the rewired P=3 and P=8 rows
// the cold ladder's matching stalls above the lowered
// ParallelThreshold (at 135-142 vertices) and the warm polish refines
// that level distributed instead of gathered; a warm run at P=1 is a
// cold run, since the serial path retains no ladder. Every row moved
// when MULTILEVEL's bisections began splitting their coarsest graph by
// greedy graph growing instead of a Fiedler vector, the distributed
// path's gathered solve became serial MULTILEVEL (solveSerial), and
// kwayRefine stopped keeping stale bucket entries; each records its
// parent value beside it.
func TestLadderPipelinePins(t *testing.T) {
	lattice := mesh.GenerateLattice(16, 16, 16, 1993)
	rewired := rewire(mesh.Generate(3000, 5), 10, 77)
	cases := []struct {
		name   string
		m      *mesh.Mesh
		ml     Multilevel
		nparts int
		want   map[string]pipelinePin // "P/op"
	}{
		{"lattice", lattice, Multilevel{Seed: 1993}, 8, latticePins},
		{"rewired", rewired, Multilevel{Seed: 12345, CoarsenTo: 10, ParallelThreshold: 100}, 4, rewiredPins},
	}
	for _, tc := range cases {
		warmMesh := rewire(tc.m, 50, 1)
		var got strings.Builder
		bad := false
		for _, p := range []int{1, 3, 8} {
			for _, op := range pipelineOps {
				key := fmt.Sprintf("%d/%s", p, op.name)
				for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
					cfg := machine.IPSC860(p)
					cfg.Backend = backend
					cfg.Seed = 42
					var pin pipelinePin
					st, err := machine.RunStats(context.Background(), cfg, func(c *machine.Ctx) {
						build := func(m *mesh.Mesh) *geocol.Graph {
							eb := m.NEdge() / p
							elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
							if c.Rank() == p-1 {
								ehi = m.NEdge()
							}
							return geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
						}
						full := c.AllGatherInts(op.run(c, tc.ml, tc.nparts, build, tc.m, warmMesh))
						if c.Rank() == 0 {
							h := uint64(14695981039346656037)
							for _, q := range full {
								h = (h ^ uint64(q)) * 1099511628211
							}
							pin.hash = h
						}
					})
					if err != nil {
						t.Fatalf("%s %s %v: %v", tc.name, key, backend, err)
					}
					pin.clock = math.Float64bits(st.MaxClock)
					if backend == machine.Simulated {
						fmt.Fprintf(&got, "\t%q: {%#x, %#x},\n", key, pin.hash, pin.clock)
					}
					if want := tc.want[key]; pin != want {
						bad = true
						t.Errorf("%s %s %v: got {%#x, %#x} (%.9g vs), want {%#x, %#x} (%.9g vs)", tc.name, key, backend,
							pin.hash, pin.clock, st.MaxClock, want.hash, want.clock, math.Float64frombits(want.clock))
					}
				}
			}
		}
		if bad {
			t.Logf("%s rows as measured (Simulated):\n%s", tc.name, got.String())
		}
	}
}

var latticePins = map[string]pipelinePin{
	"1/cold": {0x276b1e65d010040d, 0x3fe6af832e98005b}, // parent: {0x380079d13ad5e05, 0x3ff298e88a5b1987}
	"1/warm": {0x7692811fa2be865f, 0x3ff7058049999ccd}, // parent: {0xcfffaa86d6cdcefb, 0x40039ca9bc30c63d}
	"3/cold": {0x7e057871b13e7772, 0x3ff26be98016bc7c}, // parent: {0xe15e194642ab1957, 0x3ffcaa71cf7fedd7}
	"3/warm": {0xb976d6e35703eb67, 0x3ffa9caa625d6770}, // parent: {0x3a77075346ffa04d, 0x4002d2e68110549f}
	"8/cold": {0x2e7eddc67eebfe94, 0x3febac644cdd02f9}, // parent: {0xb2a06fbad6a3c6e, 0x3ff803682ea5a63d}
	"8/warm": {0x1605c3904a915b83, 0x3ff3c6fd651b0cd2}, // parent: {0xa85706c98a6cbad6, 0x3ffdb9f4e6a89c20}
}

var rewiredPins = map[string]pipelinePin{
	"1/cold": {0x328b4cb678f7d1a5, 0x3fe28addb8eab666}, // parent: {0xf86640fa50d4c12, 0x3fecc74c1cf056d7}
	"1/warm": {0xe0f49141912c4a2f, 0x3ff4598460fa48fd}, // parent: {0xdcc96eee511a5d3d, 0x3ffc27b09a00dc19}
	"3/cold": {0x88f815f35bb2c339, 0x3ff097e50273370b}, // parent: {0xe784cbe297df2494, 0x3ff4e06972ce8dff}
	"3/warm": {0x8e998c3e57f51794, 0x3ff7dca978043610}, // parent: {0x14cd18720c10c95e, 0x3ffba2f0ef920c59}
	"8/cold": {0x8ad23650f4a34821, 0x3fe7b81352597046}, // parent: {0x509ca01ebf538a72, 0x3ff05cd56259579b}
	"8/warm": {0xed8693886434ac74, 0x3fefc31cab088ab8}, // parent: {0xd7ad209dffe65256, 0x3ff4394a9b765a48}
}
