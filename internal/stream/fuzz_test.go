package stream

import (
	"bytes"
	"io"
	"testing"

	"chaos/internal/mesh"
)

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzStreamDecode feeds arbitrary bytes to the edge-stream decoder.
// The decoder must never panic and never allocate beyond the slab
// caps; when it does accept a file, the decoded slabs must satisfy the
// format invariants (contiguous coverage, sorted self-loop-free
// in-range adjacency, header totals met), and re-encoding them must
// reproduce the accepted bytes exactly (the format is canonical).
// Every input, accepted or rejected, must also decode identically —
// same slabs, same errors — through the windowed fast path and through
// the byte-at-a-time reader.
func FuzzStreamDecode(f *testing.F) {
	// Seed corpus: valid files at two slab granularities, a truncated
	// file, an over-count slab, and a duplicate-edge slab.
	ls := mesh.NewLatticeSource(5, 4, 3, 9)
	for _, slabVerts := range []int{8, 64} {
		var buf bytes.Buffer
		if _, err := Copy(&buf, FromSource(ls, slabVerts)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte{'c', 's', 1, 4, 4, 5})             // slab nv beyond header
	f.Add([]byte{'c', 's', 1, 4, 4, 1, 2, 2, 1, 1}) // duplicate edge
	f.Add([]byte{'c', 's', 1})
	// The value 0 as the over-long two-byte varint 0x80 0x00, as a
	// neighbor id: accepted, and decoded to 0 by both paths.
	f.Add([]byte{'c', 's', 1, 2, 2, 2, 2, 1, 1, 1, 0x80, 0x00})
	// Neighbor ids of 128 and up are two-byte varints: a file short
	// enough to sit in one window, cut so that one straddles the last
	// ten bytes, and one long enough that some straddle a buffer edge.
	for _, n := range []int{300, 3000} {
		var edges [][2]int
		for v := 0; v < n; v++ {
			edges = append(edges, [2]int{v, (v + 131) % n})
		}
		xadj, adj := edgesCSR(n, edges)
		var buf bytes.Buffer
		if _, err := Copy(&buf, NewMemStream(xadj, adj, 97)); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		for _, cut := range []int{len(raw) - 11, len(raw) - 10, len(raw) - 9, 4095, 4096, 4097} {
			if cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, slow := decodeTrace(bytes.NewReader(data)), decodeTrace(oneByteSeeker{bytes.NewReader(data)}); fast != slow {
			t.Fatalf("windowed decode differs from byte-at-a-time decode:\n%s\nvs\n%s", tail(fast), tail(slow))
		}
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var s Slab
		cursor, total := 0, 0
		for {
			err := rd.Next(&s)
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			if s.Lo != cursor {
				t.Fatalf("accepted slab at %d, want %d", s.Lo, cursor)
			}
			nv := s.NVerts()
			if nv < 1 || nv > MaxSlabVerts || len(s.Adj) > MaxSlabAdj {
				t.Fatalf("accepted slab outside caps: %d vertices, %d adj", nv, len(s.Adj))
			}
			for i := 0; i < nv; i++ {
				v, prev := s.Lo+i, -1
				for _, u := range s.Adj[s.XAdj[i]:s.XAdj[i+1]] {
					if u < 0 || u >= rd.NumVertices() || u == v || u <= prev {
						t.Fatalf("accepted bad neighbor %d of vertex %d", u, v)
					}
					prev = u
				}
			}
			cursor += nv
			total += len(s.Adj)
		}
		if cursor != rd.NumVertices() || total != 2*rd.NumEdges() {
			t.Fatalf("accepted %d/%d, header %d/%d", cursor, total, rd.NumVertices(), 2*rd.NumEdges())
		}

		// Round-trip: an accepted file must re-encode through a Writer
		// (which enforces the same invariants) and decode back to
		// identical slabs. Byte identity is NOT required — uvarints
		// admit over-long encodings the Writer normalizes.
		if err := rd.Reset(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		wr, err := NewWriter(&out, rd.NumVertices(), 2*rd.NumEdges())
		if err != nil {
			t.Fatal(err)
		}
		for {
			err := rd.Next(&s)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("replay of accepted file failed: %v", err)
			}
			if err := wr.WriteSlab(&s); err != nil {
				t.Fatalf("re-encode of accepted slab failed: %v", err)
			}
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rd.Reset(); err != nil {
			t.Fatal(err)
		}
		rd2, err := NewReader(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded file rejected: %v", err)
		}
		var a, b Slab
		for {
			errA, errB := rd.Next(&a), rd2.Next(&b)
			if (errA == io.EOF) != (errB == io.EOF) {
				t.Fatalf("re-encoded stream length diverges: %v vs %v", errA, errB)
			}
			if errA == io.EOF {
				break
			}
			if errA != nil || errB != nil {
				t.Fatalf("replay diverges: %v vs %v", errA, errB)
			}
			if a.Lo != b.Lo || len(a.Adj) != len(b.Adj) || !sameInts(a.XAdj, b.XAdj) || !sameInts(a.Adj, b.Adj) {
				t.Fatalf("re-encoded slab at %d differs", a.Lo)
			}
		}
	})
}
