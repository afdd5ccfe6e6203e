package stream

import (
	"bytes"
	"io"
	"testing"

	"chaos/internal/mesh"
)

// BenchmarkHotStreamPass measures one steady-state restreaming pass
// (remove + re-place every vertex) over a resident 9261-vertex mesh.
// Gated at 0 allocs/op by bench-gate: the per-edge placement loop must
// not allocate once the slab and placer scratch are warm.
func BenchmarkHotStreamPass(b *testing.B) {
	xadj, adj := meshCSR(21, 13)
	ms := NewMemStream(xadj, adj, DefaultSlabVerts)
	pl := NewPlacer(16, float64(ms.NumVertices()), Options{Seed: 3})
	part := make([]int, ms.NumVertices())
	for i := range part {
		part[i] = -1
	}
	var slab Slab
	if err := runPass(ms, &slab, pl, part, nil, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runPass(ms, &slab, pl, part, nil, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotStreamDecode measures a full decode pass over an
// in-memory edge-stream file of the same mesh. Gated at 0 allocs/op:
// after the first pass warms the slab, replaying the file must reuse
// its buffers entirely.
func BenchmarkHotStreamDecode(b *testing.B) {
	ls := mesh.NewLatticeSource(21, 21, 21, 13)
	var buf bytes.Buffer
	if _, err := Copy(&buf, FromSource(ls, DefaultSlabVerts)); err != nil {
		b.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	var slab Slab
	drain := func() {
		if err := rd.Reset(); err != nil {
			b.Fatal(err)
		}
		for {
			if err := rd.Next(&slab); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				return
			}
		}
	}
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain()
	}
}

// BenchmarkHotStreamPartitionFile measures one whole STREAM partition
// (bootstrap passes, coarse solve, placement pass) of an in-memory
// edge-stream file of the 16³ lattice into 8 parts: the repository
// benchmark's partition_cold "stream" op without the OS file.
func BenchmarkHotStreamPartitionFile(b *testing.B) {
	var buf bytes.Buffer
	if _, err := Copy(&buf, FromSource(mesh.NewLatticeSource(16, 16, 16, 1993), 0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Partition(rd, 8, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
