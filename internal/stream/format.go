package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Binary edge-stream file format ("cs v1"): what cmd/meshgen -stream
// emits and Reader replays. Everything is uvarint-encoded after a
// fixed 3-byte preamble, and every count is bounds-checked against the
// caps below before any slab memory grows — the decoder must survive
// arbitrary bytes (FuzzStreamDecode).
//
//	header:  magic 'c' 's' | version 1 | uvarint nvert | uvarint nadj
//	slab:    uvarint nv | uvarint nslabadj | nv uvarint degrees |
//	         nslabadj uvarint neighbor ids (absolute, strictly
//	         increasing per vertex, self-loop free)
//
// nadj counts directed adjacency entries (2x the undirected edge
// count) and must be even; slabs cover vertices in global order with
// no gaps, and the file ends exactly when every vertex and adjacency
// entry is accounted for.
const (
	streamMagic0  = 'c'
	streamMagic1  = 's'
	streamVersion = 1

	// DefaultSlabVerts is the slab granularity used when a caller
	// passes 0: small enough that the resident fringe stays a rounding
	// error next to the part vector, large enough to amortize per-slab
	// overhead.
	DefaultSlabVerts = 4096
	// MaxSlabVerts caps the vertices one slab may cover; the decoder
	// rejects slabs beyond it rather than growing the fringe.
	MaxSlabVerts = 1 << 20
	// MaxSlabAdj caps the adjacency entries one slab may carry —
	// together with MaxSlabVerts this bounds the resident fringe
	// (~16 MiB of ids) regardless of graph size.
	MaxSlabAdj = 1 << 24

	// maxHeaderVerts/maxHeaderAdj bound the header counts so decoder
	// arithmetic cannot overflow on hostile input. They are far above
	// anything real (16 G vertices, 256 G adjacency entries).
	maxHeaderVerts = 1 << 34
	maxHeaderAdj   = 1 << 38
)

// Writer encodes a graph as an edge-stream file. Slabs must arrive in
// global vertex order with no gaps; Close verifies the declared totals
// were met, so a file that Close accepted always decodes.
type Writer struct {
	bw      *bufio.Writer
	nvert   int
	nadj    int
	cursor  int // next vertex id expected
	wrote   int // adjacency entries written
	closed  bool
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter starts an edge-stream file for nvert vertices and nadj
// directed adjacency entries (2x the undirected edge count) and writes
// the header.
func NewWriter(w io.Writer, nvert, nadj int) (*Writer, error) {
	if nvert < 0 || nvert > maxHeaderVerts {
		return nil, fmt.Errorf("stream: nvert %d out of range [0,%d]", nvert, maxHeaderVerts)
	}
	if nadj < 0 || nadj > maxHeaderAdj || nadj%2 != 0 {
		return nil, fmt.Errorf("stream: nadj %d invalid (want even, in [0,%d])", nadj, maxHeaderAdj)
	}
	wr := &Writer{bw: bufio.NewWriter(w), nvert: nvert, nadj: nadj}
	wr.bw.WriteByte(streamMagic0)
	wr.bw.WriteByte(streamMagic1)
	wr.bw.WriteByte(streamVersion)
	wr.uvarint(uint64(nvert))
	wr.uvarint(uint64(nadj))
	if err := wr.bw.Flush(); err != nil {
		return nil, err
	}
	return wr, nil
}

func (wr *Writer) uvarint(x uint64) {
	n := binary.PutUvarint(wr.scratch[:], x)
	wr.bw.Write(wr.scratch[:n])
}

// WriteSlab appends one slab. It enforces the format invariants
// (contiguous coverage, slab caps, per-vertex strictly increasing
// in-range self-loop-free neighbors) so an encoder bug surfaces here,
// not in a reader three tools away.
func (wr *Writer) WriteSlab(s *Slab) error {
	if wr.closed {
		return fmt.Errorf("stream: write after Close")
	}
	nv := s.NVerts()
	if nv <= 0 || nv > MaxSlabVerts {
		return fmt.Errorf("stream: slab covers %d vertices, want 1..%d", nv, MaxSlabVerts)
	}
	if s.Lo != wr.cursor {
		return fmt.Errorf("stream: slab starts at vertex %d, want %d", s.Lo, wr.cursor)
	}
	if s.Lo+nv > wr.nvert {
		return fmt.Errorf("stream: slab ends at vertex %d, beyond nvert %d", s.Lo+nv, wr.nvert)
	}
	nadj := len(s.Adj)
	if nadj > MaxSlabAdj {
		return fmt.Errorf("stream: slab carries %d adjacency entries, cap %d", nadj, MaxSlabAdj)
	}
	if s.XAdj[0] != 0 || s.XAdj[nv] != nadj {
		return fmt.Errorf("stream: slab xadj spans [%d,%d], want [0,%d]", s.XAdj[0], s.XAdj[nv], nadj)
	}
	if wr.wrote+nadj > wr.nadj {
		return fmt.Errorf("stream: adjacency overflow: %d entries after %d, declared %d", nadj, wr.wrote, wr.nadj)
	}
	wr.uvarint(uint64(nv))
	wr.uvarint(uint64(nadj))
	for i := 0; i < nv; i++ {
		lo, hi := s.XAdj[i], s.XAdj[i+1]
		if hi < lo {
			return fmt.Errorf("stream: slab xadj not monotone at vertex %d", s.Lo+i)
		}
		wr.uvarint(uint64(hi - lo))
	}
	for i := 0; i < nv; i++ {
		v := s.Lo + i
		prev := -1
		for _, u := range s.Adj[s.XAdj[i]:s.XAdj[i+1]] {
			if u < 0 || u >= wr.nvert {
				return fmt.Errorf("stream: vertex %d has neighbor %d outside [0,%d)", v, u, wr.nvert)
			}
			if u == v {
				return fmt.Errorf("stream: vertex %d has a self-loop", v)
			}
			if u == prev {
				return fmt.Errorf("stream: vertex %d lists neighbor %d twice", v, u)
			}
			if u < prev {
				return fmt.Errorf("stream: vertex %d neighbors not increasing (%d after %d)", v, u, prev)
			}
			prev = u
			wr.uvarint(uint64(u))
		}
	}
	wr.cursor += nv
	wr.wrote += nadj
	return wr.bw.Flush()
}

// Close verifies the file covered everything the header declared and
// flushes. It does not close the underlying writer.
func (wr *Writer) Close() error {
	if wr.closed {
		return nil
	}
	wr.closed = true
	if wr.cursor != wr.nvert {
		return fmt.Errorf("stream: closed after vertex %d of %d", wr.cursor, wr.nvert)
	}
	if wr.wrote != wr.nadj {
		return fmt.Errorf("stream: closed with %d adjacency entries, declared %d", wr.wrote, wr.nadj)
	}
	return wr.bw.Flush()
}

// Copy drains gs into w as an edge-stream file and returns the number
// of slabs written. One slab stays resident.
func Copy(w io.Writer, gs GraphStream) (int, error) {
	if err := gs.Reset(); err != nil {
		return 0, err
	}
	wr, err := NewWriter(w, gs.NumVertices(), 2*gs.NumEdges())
	if err != nil {
		return 0, err
	}
	var s Slab
	slabs := 0
	for {
		err := gs.Next(&s)
		if err == io.EOF {
			break
		}
		if err != nil {
			return slabs, err
		}
		if err := wr.WriteSlab(&s); err != nil {
			return slabs, err
		}
		slabs++
	}
	return slabs, wr.Close()
}

// Reader replays an edge-stream file as a GraphStream. It is
// defensive: every count is checked against the header and the format
// caps before slab memory grows, malformed adjacency (out of range,
// self-loop, duplicate, unsorted) is a descriptive error, and
// truncation surfaces as a wrapped io.ErrUnexpectedEOF — never a
// panic, never an unbounded allocation.
type Reader struct {
	r  io.ReadSeeker
	br *bufio.Reader
	// win is the undecoded rest of a window onto br's buffered bytes,
	// winLen the window's original length; br itself still counts the
	// whole window as unread until closeWindow.
	win    []byte
	winLen int
	size   int64 // the file's length: what bounds any pre-sizing of a slab
	nvert  int
	nadj   int
	cursor int // next vertex id expected
	read   int // adjacency entries consumed
	done   bool
	failed error
}

// NewReader parses the header and positions the stream at the first
// slab. Reset replays from the start via Seek.
func NewReader(r io.ReadSeeker) (*Reader, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = r.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, fmt.Errorf("stream: measuring the file: %w", err)
	}
	rd := &Reader{r: r, br: bufio.NewReader(r), size: size}
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	return rd, nil
}

func (rd *Reader) readHeader() error {
	// Byte-at-a-time so Reset's header re-read stays allocation-free
	// (a local array handed to io.ReadFull escapes).
	var hdr [3]byte
	for i := range hdr {
		b, err := rd.br.ReadByte()
		if err != nil {
			return fmt.Errorf("stream: short header: %w", noEOF(err))
		}
		hdr[i] = b
	}
	if hdr[0] != streamMagic0 || hdr[1] != streamMagic1 {
		return fmt.Errorf("stream: bad magic %#x %#x", hdr[0], hdr[1])
	}
	if hdr[2] != streamVersion {
		return fmt.Errorf("stream: unsupported version %d", hdr[2])
	}
	nvert, err := rd.uvarint("nvert")
	if err != nil {
		return err
	}
	nadj, err := rd.uvarint("nadj")
	if err != nil {
		return err
	}
	if nvert > maxHeaderVerts {
		return fmt.Errorf("stream: header nvert %d beyond cap %d", nvert, maxHeaderVerts)
	}
	if nadj > maxHeaderAdj || nadj%2 != 0 {
		return fmt.Errorf("stream: header nadj %d invalid (want even, <= %d)", nadj, maxHeaderAdj)
	}
	rd.nvert, rd.nadj = int(nvert), int(nadj)
	rd.cursor, rd.read, rd.done = 0, 0, false
	return nil
}

// noEOF turns a bare io.EOF into io.ErrUnexpectedEOF: inside a
// structure, running out of bytes is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// uvarint reads one bounded varint, naming the field in errors. While
// a longest-possible varint's worth of bytes is left in the window it
// decodes in place; otherwise — the window's last bytes, the file's
// tail, a malformed varint — it takes the byte-at-a-time reader, which
// is also what words every error.
func (rd *Reader) uvarint(field string) (uint64, error) {
	if len(rd.win) >= binary.MaxVarintLen64 {
		if x, n := binary.Uvarint(rd.win); n > 0 {
			rd.win = rd.win[n:]
			return x, nil
		}
	}
	rd.closeWindow()
	x, err := binary.ReadUvarint(rd.br)
	if err != nil {
		return 0, fmt.Errorf("stream: reading %s: %w", field, noEOF(err))
	}
	// The read may have refilled br: window whatever it holds now.
	rd.win, _ = rd.br.Peek(rd.br.Buffered()) // buffered: cannot fail
	rd.winLen = len(rd.win)
	return x, nil
}

// closeWindow tells br how far the window was decoded and drops the
// window; every other use of br comes after it.
func (rd *Reader) closeWindow() {
	rd.br.Discard(rd.winLen - len(rd.win)) // buffered: cannot fail
	rd.win, rd.winLen = nil, 0
}

// NumVertices returns the header vertex count.
func (rd *Reader) NumVertices() int { return rd.nvert }

// NumEdges returns the header undirected edge count (nadj/2).
func (rd *Reader) NumEdges() int { return rd.nadj / 2 }

// Reset seeks back to the start of the file and re-parses the header,
// verifying it has not changed underneath us.
func (rd *Reader) Reset() error {
	if _, err := rd.r.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("stream: reset: %w", err)
	}
	rd.br.Reset(rd.r)
	rd.win, rd.winLen = nil, 0
	nvert, nadj := rd.nvert, rd.nadj
	if err := rd.readHeader(); err != nil {
		return err
	}
	if rd.nvert != nvert || rd.nadj != nadj {
		return fmt.Errorf("stream: header changed across Reset (%d/%d -> %d/%d)", nvert, nadj, rd.nvert, rd.nadj)
	}
	rd.failed = nil
	return nil
}

// fail records a decode error so later Next calls repeat it instead of
// reading past a corrupt structure.
func (rd *Reader) fail(err error) error {
	rd.failed = err
	return err
}

// The decode-error constructors live outside Next so the hot decode
// loop stays free of fmt calls (hotalloc); they only run on corrupt
// input, where allocation is irrelevant.

func errAdjCount(read, nadj int) error {
	return fmt.Errorf("stream: file carries %d adjacency entries, header declared %d", read, nadj)
}

func errAfterFinal(err error) error {
	if err != nil {
		return fmt.Errorf("stream: after final slab: %w", err)
	}
	return fmt.Errorf("stream: trailing bytes after final slab")
}

func errSlabVerts(nv uint64) error {
	return fmt.Errorf("stream: slab covers %d vertices, want 1..%d", nv, MaxSlabVerts)
}

func errSlabEnd(end, nvert int) error {
	return fmt.Errorf("stream: slab ends at vertex %d, beyond header nvert %d", end, nvert)
}

func errSlabAdj(na uint64) error {
	return fmt.Errorf("stream: slab carries %d adjacency entries, cap %d", na, MaxSlabAdj)
}

func errAdjOverflow(nadj, read, total int) error {
	return fmt.Errorf("stream: adjacency overflow: %d entries after %d, header declared %d", nadj, read, total)
}

func errDegreeOverrun(v int, d uint64, nadj int) error {
	return fmt.Errorf("stream: vertex %d degree %d overruns slab adjacency %d", v, d, nadj)
}

func errDegreeSum(total, nadj int) error {
	return fmt.Errorf("stream: slab degrees sum to %d, declared %d", total, nadj)
}

// errNeighbor words why neighbor u of vertex v (after prev) is
// rejected: out of range, a self-loop, a repeat or out of order.
func errNeighbor(v int, u64 uint64, prev, nvert int) error {
	u := int(u64)
	switch {
	case u64 >= uint64(nvert):
		return fmt.Errorf("stream: vertex %d has neighbor %d outside [0,%d)", v, u64, nvert)
	case u == v:
		return fmt.Errorf("stream: vertex %d has a self-loop", v)
	case u == prev:
		return fmt.Errorf("stream: vertex %d lists neighbor %d twice", v, u)
	}
	return fmt.Errorf("stream: vertex %d neighbors not increasing (%d after %d)", v, u, prev)
}

// Next decodes the next slab into s.
//
//chaos:hotpath
func (rd *Reader) Next(s *Slab) error {
	if rd.failed != nil {
		return rd.failed
	}
	if rd.cursor >= rd.nvert {
		s.reset(rd.nvert)
		if !rd.done {
			rd.done = true
			if rd.read != rd.nadj {
				return rd.fail(errAdjCount(rd.read, rd.nadj))
			}
			rd.closeWindow()
			if _, err := rd.br.ReadByte(); err != io.EOF {
				return rd.fail(errAfterFinal(err))
			}
		}
		return io.EOF
	}

	nv64, err := rd.uvarint("slab nv")
	if err != nil {
		return rd.fail(err)
	}
	if nv64 == 0 || nv64 > MaxSlabVerts {
		return rd.fail(errSlabVerts(nv64))
	}
	nv := int(nv64)
	if rd.cursor+nv > rd.nvert {
		return rd.fail(errSlabEnd(rd.cursor+nv, rd.nvert))
	}
	na64, err := rd.uvarint("slab nadj")
	if err != nil {
		return rd.fail(err)
	}
	if na64 > MaxSlabAdj {
		return rd.fail(errSlabAdj(na64))
	}
	nadj := int(na64)
	if rd.read+nadj > rd.nadj {
		return rd.fail(errAdjOverflow(nadj, rd.read, rd.nadj))
	}

	s.reset(rd.cursor)
	// Size the slab once, but never past what the file could hold:
	// every degree and every neighbor id takes at least one byte.
	if int64(nv)+int64(nadj) <= rd.size {
		s.XAdj = slices.Grow(s.XAdj, nv)
		s.Adj = slices.Grow(s.Adj, nadj)
	}
	total := 0
	for i := 0; i < nv; i++ {
		d64, err := rd.uvarint("degree")
		if err != nil {
			return rd.fail(err)
		}
		if d64 > uint64(nadj-total) {
			return rd.fail(errDegreeOverrun(rd.cursor+i, d64, nadj))
		}
		total += int(d64)
		s.XAdj = append(s.XAdj, total)
	}
	if total != nadj {
		return rd.fail(errDegreeSum(total, nadj))
	}
	// Neighbor ids decode inline while they are 1- or 2-byte varints
	// wholly inside the window; anything else goes through uvarint,
	// which keeps every value and every error the byte reader's.
	win := rd.win
	for i := 0; i < nv; i++ {
		v := rd.cursor + i
		prev := -1
		for j := s.XAdj[i]; j < s.XAdj[i+1]; j++ {
			var u64 uint64
			if len(win) > 0 && win[0] < 0x80 {
				u64, win = uint64(win[0]), win[1:]
			} else if len(win) > 1 && win[1] < 0x80 {
				u64, win = uint64(win[0]&0x7f)|uint64(win[1])<<7, win[2:]
			} else {
				rd.win = win
				if u64, err = rd.uvarint("neighbor"); err != nil {
					return rd.fail(err)
				}
				win = rd.win
			}
			u := int(u64)
			if u64 >= uint64(rd.nvert) || u == v || u <= prev {
				return rd.fail(errNeighbor(v, u64, prev, rd.nvert))
			}
			prev = u
			s.Adj = append(s.Adj, u)
		}
	}
	rd.win = win
	rd.cursor += nv
	rd.read += nadj
	return nil
}
