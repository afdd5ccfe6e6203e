package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"chaos/internal/mesh"
)

// encodeMesh streams the side^3 lattice through Copy and returns the
// file bytes plus the materialized CSR for cross-checks.
func encodeMesh(t *testing.T, side int, seed uint64, slabVerts int) ([]byte, []int, []int) {
	t.Helper()
	ls := mesh.NewLatticeSource(side, side, side, seed)
	var buf bytes.Buffer
	slabs, err := Copy(&buf, FromSource(ls, slabVerts))
	if err != nil {
		t.Fatal(err)
	}
	wantSlabs := (ls.NumVertices() + slabVerts - 1) / slabVerts
	if slabs != wantSlabs {
		t.Fatalf("Copy wrote %d slabs, want %d", slabs, wantSlabs)
	}
	xadj, adj := meshCSR(side, seed)
	return buf.Bytes(), xadj, adj
}

func TestFileRoundTrip(t *testing.T) {
	raw, xadj, adj := encodeMesh(t, 8, 21, 37)
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumVertices() != len(xadj)-1 || rd.NumEdges() != len(adj)/2 {
		t.Fatalf("header %d/%d, want %d/%d", rd.NumVertices(), rd.NumEdges(), len(xadj)-1, len(adj)/2)
	}
	// Two full replays (Reset in between) must reproduce the CSR.
	for pass := 0; pass < 2; pass++ {
		if err := rd.Reset(); err != nil {
			t.Fatal(err)
		}
		var s Slab
		cursor, at := 0, 0
		for {
			err := rd.Next(&s)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.NVerts(); i++ {
				v := s.Lo + i
				got := s.Adj[s.XAdj[i]:s.XAdj[i+1]]
				want := adj[xadj[v]:xadj[v+1]]
				if len(got) != len(want) {
					t.Fatalf("pass %d vertex %d: degree %d, want %d", pass, v, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("pass %d vertex %d neighbor %d: %d, want %d", pass, v, j, got[j], want[j])
					}
				}
				at += len(got)
			}
			cursor += s.NVerts()
		}
		if cursor != len(xadj)-1 || at != len(adj) {
			t.Fatalf("pass %d: replayed %d/%d, want %d/%d", pass, cursor, at, len(xadj)-1, len(adj))
		}
		// Next after EOF keeps returning EOF.
		if err := rd.Next(&s); err != io.EOF {
			t.Fatalf("pass %d: post-EOF Next = %v", pass, err)
		}
	}
}

func TestPartitionFromFileMatchesMem(t *testing.T) {
	raw, xadj, adj := encodeMesh(t, 9, 4, 100)
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Objective: Fennel, Seed: 8, Restreams: 1}
	fromFile, err := Partition(rd, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	fromMem, err := Partition(NewMemStream(xadj, adj, 512), 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fromMem {
		if fromFile[v] != fromMem[v] {
			t.Fatalf("file and mem partitions diverge at vertex %d", v)
		}
	}
}

func TestWriterRejectsMalformedSlabs(t *testing.T) {
	newW := func() *Writer {
		wr, err := NewWriter(io.Discard, 10, 4)
		if err != nil {
			t.Fatal(err)
		}
		return wr
	}
	slab := func(lo int, xadj, adj []int) *Slab { return &Slab{Lo: lo, XAdj: xadj, Adj: adj} }
	cases := []struct {
		name string
		s    *Slab
	}{
		{"gap", slab(1, []int{0, 1}, []int{2})},
		{"beyond nvert", slab(0, []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, nil)},
		{"self-loop", slab(0, []int{0, 1}, []int{0})},
		{"out of range", slab(0, []int{0, 1}, []int{10})},
		{"negative", slab(0, []int{0, 1}, []int{-1})},
		{"duplicate", slab(0, []int{0, 2}, []int{3, 3})},
		{"unsorted", slab(0, []int{0, 2}, []int{4, 2})},
		{"empty", slab(0, []int{0}, nil)},
	}
	for _, c := range cases {
		if err := newW().WriteSlab(c.s); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	wr := newW()
	if err := wr.Close(); err == nil {
		t.Error("Close with vertices uncovered: accepted")
	}
	wr = newW()
	if err := wr.WriteSlab(slab(0, []int{0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2}, []int{1, 0})); err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err == nil {
		t.Error("Close with adjacency undeclared short: accepted")
	}
	if err := wr.WriteSlab(slab(10, []int{0, 0}, nil)); err == nil {
		t.Error("write after Close: accepted")
	}

	if _, err := NewWriter(io.Discard, -1, 0); err == nil {
		t.Error("negative nvert accepted")
	}
	if _, err := NewWriter(io.Discard, 4, 3); err == nil {
		t.Error("odd nadj accepted")
	}
}

// corrupt applies f to a copy of raw and expects the reader to return
// a descriptive error containing want (never a panic).
func expectDecodeError(t *testing.T, raw []byte, want string) {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(raw))
	if err == nil {
		var s Slab
		for {
			if err = rd.Next(&s); err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Fatalf("decoded cleanly, want error containing %q", want)
		}
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want it to contain %q", err, want)
	}
}

func TestReaderRejectsCorruptFiles(t *testing.T) {
	raw, _, _ := encodeMesh(t, 4, 2, 16)

	t.Run("short header", func(t *testing.T) {
		expectDecodeError(t, raw[:2], "short header")
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] = 'x'
		expectDecodeError(t, bad, "bad magic")
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[2] = 9
		expectDecodeError(t, bad, "version")
	})
	t.Run("truncated slab", func(t *testing.T) {
		expectDecodeError(t, raw[:len(raw)/2], "stream:")
	})
	t.Run("truncation is ErrUnexpectedEOF", func(t *testing.T) {
		rd, err := NewReader(bytes.NewReader(raw[:len(raw)-1]))
		if err != nil {
			t.Fatal(err)
		}
		var s Slab
		for err == nil {
			err = rd.Next(&s)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation error = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		expectDecodeError(t, append(append([]byte(nil), raw...), 0), "trailing")
	})

	// Hand-built hostile slabs: header says 4 vertices, 4 adjacency
	// entries (2 edges on a path 0-1, 1-2 ... we just need counts).
	hdr := []byte{'c', 's', 1, 4, 4}
	t.Run("over-count slab nv", func(t *testing.T) {
		expectDecodeError(t, append(append([]byte(nil), hdr...), 5), "beyond header nvert")
	})
	t.Run("zero-vertex slab", func(t *testing.T) {
		expectDecodeError(t, append(append([]byte(nil), hdr...), 0), "want 1..")
	})
	t.Run("adjacency overflow", func(t *testing.T) {
		expectDecodeError(t, append(append([]byte(nil), hdr...), 1, 200, 1), "overflow")
	})
	t.Run("degree overrun", func(t *testing.T) {
		// nv=2, nadj=2, degrees 3,...: first degree overruns slab total.
		expectDecodeError(t, append(append([]byte(nil), hdr...), 2, 2, 3), "overruns")
	})
	t.Run("degree undercount", func(t *testing.T) {
		// nv=2, nadj=2, degrees 1,0: sum 1 != declared 2.
		expectDecodeError(t, append(append([]byte(nil), hdr...), 2, 2, 1, 0), "sum to")
	})
	t.Run("duplicate neighbor", func(t *testing.T) {
		// nv=1, nadj=2, degree 2, neighbors 1,1.
		expectDecodeError(t, append(append([]byte(nil), hdr...), 1, 2, 2, 1, 1), "twice")
	})
	t.Run("self-loop", func(t *testing.T) {
		expectDecodeError(t, append(append([]byte(nil), hdr...), 1, 2, 2, 0, 1), "self-loop")
	})
	t.Run("unsorted", func(t *testing.T) {
		expectDecodeError(t, append(append([]byte(nil), hdr...), 1, 2, 2, 3, 1), "not increasing")
	})
	t.Run("neighbor out of range", func(t *testing.T) {
		expectDecodeError(t, append(append([]byte(nil), hdr...), 1, 2, 2, 1, 9), "outside")
	})
	t.Run("odd header nadj", func(t *testing.T) {
		expectDecodeError(t, []byte{'c', 's', 1, 4, 3}, "invalid")
	})
	t.Run("adjacency shortfall at end", func(t *testing.T) {
		// Four 0-degree slabs then EOF: file total 0, header declared 4.
		expectDecodeError(t, append(append([]byte(nil), hdr...), 4, 0, 0, 0, 0, 0), "header declared")
	})
	t.Run("error is sticky", func(t *testing.T) {
		rd, err := NewReader(bytes.NewReader(append(append([]byte(nil), hdr...), 5)))
		if err != nil {
			t.Fatal(err)
		}
		var s Slab
		first := rd.Next(&s)
		if first == nil {
			t.Fatal("hostile slab accepted")
		}
		if second := rd.Next(&s); second != first {
			t.Fatalf("error not sticky: %v then %v", first, second)
		}
		// Reset clears it and replays (still corrupt, same error text).
		if err := rd.Reset(); err != nil {
			t.Fatal(err)
		}
		if again := rd.Next(&s); again == nil || again.Error() != first.Error() {
			t.Fatalf("after Reset: %v, want %v", again, first)
		}
	})
}

// oneByteSeeker hands out a file one byte per Read, so a bufio.Reader
// over it never holds more than one unread byte: Reader.uvarint never
// finds a window to decode from and takes the byte-at-a-time path for
// every varint.
type oneByteSeeker struct{ r *bytes.Reader }

func (o oneByteSeeker) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func (o oneByteSeeker) Seek(off int64, whence int) (int64, error) { return o.r.Seek(off, whence) }

// decodeTrace replays the file twice (Reset in between) and returns
// what came out: every slab and the error that ended each pass.
func decodeTrace(r io.ReadSeeker) string {
	var sb strings.Builder
	rd, err := NewReader(r)
	if err != nil {
		return "open: " + err.Error()
	}
	var s Slab
	for pass := 0; pass < 2; pass++ {
		for err = rd.Next(&s); err == nil; err = rd.Next(&s) {
			fmt.Fprintf(&sb, "lo %d xadj %v adj %v\n", s.Lo, s.XAdj, s.Adj)
		}
		fmt.Fprintf(&sb, "end: %v (unexpected EOF: %v)\n", err, errors.Is(err, io.ErrUnexpectedEOF))
		if err := rd.Reset(); err != nil {
			return sb.String() + "reset: " + err.Error()
		}
	}
	return sb.String()
}

// TestWindowDecodeMatchesByteReader decodes a file several bufio
// buffers long, every truncation of it around varint and buffer
// boundaries, and corruptions that plant over-long and overflowing
// varints — once through the windowed fast path and once with the fast
// path starved — and demands identical slabs and identical, identically
// typed errors.
func TestWindowDecodeMatchesByteReader(t *testing.T) {
	raw, _, _ := encodeMesh(t, 11, 5, 64)
	if len(raw) < 3*4096 {
		t.Fatalf("test file is %d bytes; want several bufio buffers", len(raw))
	}
	check := func(name string, data []byte) {
		t.Helper()
		fast := decodeTrace(bytes.NewReader(data))
		slow := decodeTrace(oneByteSeeker{bytes.NewReader(data)})
		if fast != slow {
			t.Errorf("%s: windowed decode differs from byte-at-a-time decode:\n%s\nvs\n%s",
				name, tail(fast), tail(slow))
		}
	}
	check("intact", raw)
	if !strings.Contains(decodeTrace(bytes.NewReader(raw)), "end: EOF (") {
		t.Fatal("intact file did not decode to EOF")
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 9, 10, 11, 4095, 4096, 4097, 8191, 8192, 8193, len(raw) - 11, len(raw) - 10, len(raw) - 9, len(raw) - 2, len(raw) - 1} {
		check("truncated at "+strconv.Itoa(n), raw[:n])
	}
	// A file whose last varint is ten bytes long (the value 0, padded):
	// the window is decoded to its very end, and the end-of-file probe
	// must still see that nothing follows.
	padded := []byte{'c', 's', 1, 2, 2, 2, 2, 1, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}
	check("padded last varint", padded)
	if !strings.Contains(decodeTrace(bytes.NewReader(padded)), "end: EOF (") {
		t.Error("file with a padded last varint did not decode to EOF")
	}
	overflow := bytes.Repeat([]byte{0xff}, 11)
	overlong := []byte{0x81, 0x80, 0x80, 0x00} // the value 1 in four bytes
	for _, at := range []int{3, 5, 40, 4090, 4096, 9000, len(raw) - 12} {
		for name, patch := range map[string][]byte{"overflow": overflow, "overlong": overlong} {
			bad := append([]byte(nil), raw...)
			copy(bad[at:], patch)
			check(name+" at "+strconv.Itoa(at), bad)
		}
	}
}

// tail returns the last lines of a decode trace.
func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > 3 {
		lines = lines[len(lines)-3:]
	}
	return strings.Join(lines, "\n")
}
