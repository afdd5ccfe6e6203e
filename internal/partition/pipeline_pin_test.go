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

// pipelineOps are the three entry points of the MULTILEVEL ladder
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
	{"vcycle", func(c *machine.Ctx, ml Multilevel, nparts int, build func(*mesh.Mesh) *geocol.Graph, m, _ *mesh.Mesh) []int {
		ml.VCycle = true
		return ml.Partition(c, build(m), nparts)
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
// cold, V-cycle and warm entry points, on the benchmark's lattice at
// the default knobs and on a rewired mesh with the knobs lowered so the
// ladder is several levels deep and restricted matching can stall above
// ParallelThreshold, at P in {1, 3, 8} on both backends. The constants were recorded at the commit before the four
// drivers were folded into one pipeline and are that commit's, except
// the rewired rows marked below. There matching stalls above the
// lowered ParallelThreshold — restricted matching at 132 vertices, the
// cold ladder's at 135-142 — and the warm polish now refines that
// level distributed instead of gathered (the warm rows). Each changed
// row records its parent value beside it.
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
	"1/cold":   {0x80525d094aabb93, 0x3ff80ba4f3a74ad7},
	"1/vcycle": {0x80525d094aabb93, 0x3ff80ba4f3a74ad7},
	"1/warm":   {0x73a5c89865204a57, 0x40086c18784afabb},
	"3/cold":   {0xe15e194642ab1957, 0x3ffcaa71cf7fedd7},
	"3/vcycle": {0xe21e36cf9246ba4b, 0x40045e57de1e722f},
	"3/warm":   {0x3a77075346ffa04d, 0x4002d2e68110549f},
	"8/cold":   {0xb2a06fbad6a3c6e, 0x3ff803682ea5a63d},
	"8/vcycle": {0x84edcf95deb1f93c, 0x40003b63f70be9a2},
	"8/warm":   {0xa85706c98a6cbad6, 0x3ffdb9f4e6a89c20},
}

var rewiredPins = map[string]pipelinePin{
	"1/cold":   {0x8d41e97a2bc640b3, 0x3febed5f138bcdfe},
	"1/vcycle": {0x8d41e97a2bc640b3, 0x3febed5f138bcdfe},
	"1/warm":   {0xa473f8c1a382b279, 0x3ffbfa7254a6f859},
	"3/cold":   {0xe784cbe297df2494, 0x3ff4e06972ce8dff},
	"3/vcycle": {0xc91bd90047311e4e, 0x3ffef39384e9fe4f},
	"3/warm":   {0x14cd18720c10c95e, 0x3ffba2f0ef920c59}, // parent: {0x2d7e6b3210f28e98, 0x3ffdc76717d362e8}
	"8/cold":   {0x509ca01ebf538a72, 0x3ff05cd56259579b},
	"8/vcycle": {0x2b849e6f13b54e1f, 0x3ff7e4933e24bac3},
	"8/warm":   {0xd7ad209dffe65256, 0x3ff4394a9b765a48}, // parent: {0xc714594e44ed9e75, 0x3ff64dc74286abfe}
}
