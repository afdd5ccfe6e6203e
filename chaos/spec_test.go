package chaos_test

import (
	"strings"
	"testing"

	"chaos/chaos"
	"chaos/internal/mesh"
)

// TestParseSpecBitIdenticalToTypedPath pins the string front end:
// ParseSpec(name) + SetPartitioning must produce bit-identical
// partitions to SetPartitioning with the equivalent typed literal, for
// every built-in method.
func TestParseSpecBitIdenticalToTypedPath(t *testing.T) {
	const procs = 4
	m := mesh.Generate(600, 42)
	err := chaos.Run(chaos.IPSC860(procs), func(s *chaos.Session) {
		e1 := s.NewIntArray("e1", m.NEdge())
		e2 := s.NewIntArray("e2", m.NEdge())
		e1.FillByGlobal(func(g int) int { return m.E1[g] })
		e2.FillByGlobal(func(g int) int { return m.E2[g] })
		xc := s.NewArray("xc", m.NNode)
		yc := s.NewArray("yc", m.NNode)
		zc := s.NewArray("zc", m.NNode)
		xc.FillByGlobal(func(g int) float64 { return m.X[g] })
		yc.FillByGlobal(func(g int) float64 { return m.Y[g] })
		zc.FillByGlobal(func(g int) float64 { return m.Z[g] })
		g := s.Construct(m.NNode, chaos.GeoColInput{
			Link1: e1, Link2: e2,
			Geometry: []*chaos.Array{xc, yc, zc},
		})

		for _, method := range []chaos.Method{
			chaos.MethodBlock, chaos.MethodRCB, chaos.MethodRSB,
			chaos.MethodMultilevel, chaos.MethodStream,
		} {
			name := string(method)
			spec, err := chaos.ParseSpec(name)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			byName, err := s.SetPartitioning(g, spec, procs)
			if err != nil {
				t.Errorf("%s string path: %v", name, err)
				continue
			}
			typed, err := s.SetPartitioning(g, chaos.PartitionSpec{Method: method}, procs)
			if err != nil {
				t.Errorf("%s typed path: %v", name, err)
				continue
			}
			a, b := byName.LocalPart(), typed.LocalPart()
			if len(a) != len(b) {
				t.Errorf("%s: partition lengths differ: %d vs %d", name, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s: partitions differ at local %d: %d vs %d", name, i, a[i], b[i])
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetPartitioningValidatesEarly pins the call-site error shape of
// the typed public API: a capability mismatch is a descriptive error,
// not a panic, and an unknown method names what is registered.
func TestSetPartitioningValidatesEarly(t *testing.T) {
	err := chaos.Run(chaos.ZeroCost(2), func(s *chaos.Session) {
		e1 := s.NewIntArray("e1", 16)
		e2 := s.NewIntArray("e2", 16)
		e1.FillByGlobal(func(g int) int { return g })
		e2.FillByGlobal(func(g int) int { return (g + 1) % 16 })
		g := s.Construct(16, chaos.GeoColInput{Link1: e1, Link2: e2})

		if _, err := s.SetPartitioning(g, chaos.PartitionSpec{Method: chaos.MethodRCB}, 2); err == nil ||
			!strings.Contains(err.Error(), "GEOMETRY") {
			t.Errorf("RCB on LINK-only graph: %v, want GEOMETRY error", err)
		}
		if _, err := s.SetPartitioning(g, chaos.PartitionSpec{Method: "NOPE"}, 2); err == nil ||
			!strings.Contains(err.Error(), "unknown partitioner") {
			t.Errorf("unknown method: %v, want unknown-partitioner error", err)
		}
		if _, err := s.NewRepartitioner(chaos.PartitionSpec{Method: chaos.MethodRSB, CoarsenTo: 200}); err == nil ||
			!strings.Contains(err.Error(), "tuning") {
			t.Errorf("tuned RSB spec: %v, want tuning-options error", err)
		}
		if _, err := s.SetPartitioning(g, chaos.PartitionSpec{
			Method: chaos.MethodMultilevel, BalanceSlack: 0.1}, 2); err == nil ||
			!strings.Contains(err.Error(), "STREAM") {
			t.Errorf("streaming knobs on MULTILEVEL: %v, want STREAM-only error", err)
		}
		if _, err := s.SetPartitioning(g, chaos.PartitionSpec{
			Method: chaos.MethodStream, Restreams: 1}, 2); err != nil {
			t.Errorf("typed STREAM spec: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
