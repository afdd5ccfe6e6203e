package registry

import (
	"testing"

	"chaos/internal/dist"
)

func TestFirstCheckMisses(t *testing.T) {
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 100)
	ia := a.New(dist.Block, 50)
	var rec LoopRecord
	if r.Check(&rec, []dist.DAD{x}, []dist.DAD{ia}) {
		t.Fatal("empty record must not validate")
	}
	if h, m := r.Stats(); h != 0 || m != 1 {
		t.Fatalf("stats = (%d,%d)", h, m)
	}
}

func TestReuseAfterRecord(t *testing.T) {
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 100)
	y := a.New(dist.Block, 100)
	ia := a.New(dist.Block, 50)
	var rec LoopRecord
	data, ind := []dist.DAD{x, y}, []dist.DAD{ia}
	r.Check(&rec, data, ind)
	r.Record(&rec, data, ind)
	for i := 0; i < 5; i++ {
		if !r.Check(&rec, data, ind) {
			t.Fatalf("iteration %d: reuse denied with nothing modified", i)
		}
	}
	if h, _ := r.Stats(); h != 5 {
		t.Fatalf("hits = %d, want 5", h)
	}
}

func TestWriteToIndirectionInvalidates(t *testing.T) {
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 100)
	ia := a.New(dist.Block, 50)
	var rec LoopRecord
	data, ind := []dist.DAD{x}, []dist.DAD{ia}
	r.Record(&rec, data, ind)
	if !r.Check(&rec, data, ind) {
		t.Fatal("expected initial reuse")
	}
	r.NoteWrite(ia) // condition 3 violated
	if r.Check(&rec, data, ind) {
		t.Fatal("reuse allowed after indirection array write")
	}
	// Re-inspect and reuse again.
	r.Record(&rec, data, ind)
	if !r.Check(&rec, data, ind) {
		t.Fatal("reuse denied after fresh inspector")
	}
}

func TestWriteToDataArrayDoesNotInvalidate(t *testing.T) {
	// The paper's conditions track only indirection arrays and
	// distributions; writing data *values* through an unchanged
	// distribution keeps the schedule valid.
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 100)
	ia := a.New(dist.Block, 50)
	var rec LoopRecord
	data, ind := []dist.DAD{x}, []dist.DAD{ia}
	r.Record(&rec, data, ind)
	r.NoteWrite(x)
	if !r.Check(&rec, data, ind) {
		t.Fatal("writing data values must not force a re-inspection")
	}
}

func TestRemapInvalidatesThroughDADChange(t *testing.T) {
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 100)
	ia := a.New(dist.Block, 50)
	var rec LoopRecord
	r.Record(&rec, []dist.DAD{x}, []dist.DAD{ia})
	// Remap x: fresh DAD (condition 1).
	x2 := a.New(dist.Irregular, 100)
	r.NoteRemap(x2)
	if r.Check(&rec, []dist.DAD{x2}, []dist.DAD{ia}) {
		t.Fatal("reuse allowed after data array remap")
	}
	// Remap ia: fresh DAD (condition 2).
	r.Record(&rec, []dist.DAD{x2}, []dist.DAD{ia})
	ia2 := a.New(dist.Irregular, 50)
	r.NoteRemap(ia2)
	if r.Check(&rec, []dist.DAD{x2}, []dist.DAD{ia2}) {
		t.Fatal("reuse allowed after indirection array remap")
	}
}

func TestArityMismatchMisses(t *testing.T) {
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 100)
	ia := a.New(dist.Block, 50)
	var rec LoopRecord
	r.Record(&rec, []dist.DAD{x}, []dist.DAD{ia})
	if r.Check(&rec, []dist.DAD{x, x}, []dist.DAD{ia}) {
		t.Fatal("data arity change must miss")
	}
	if r.Check(&rec, []dist.DAD{x}, nil) {
		t.Fatal("indirection arity change must miss")
	}
}

func TestNmodCountsBlocksNotElements(t *testing.T) {
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 1000)
	// One loop writing 1000 elements is ONE modification event.
	r.NoteWrite(x)
	if r.nmod != 1 {
		t.Fatalf("nmod = %d, want 1", r.nmod)
	}
	r.NoteWrite(x)
	r.NoteRemap(a.New(dist.Block, 1000))
	if r.nmod != 3 {
		t.Fatalf("nmod = %d, want 3", r.nmod)
	}
}

func TestLastModTracksLatest(t *testing.T) {
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 10)
	y := a.New(dist.Block, 10)
	if r.LastMod(x) != 0 {
		t.Fatal("unmodified DAD should have stamp 0")
	}
	r.NoteWrite(x)
	r.NoteWrite(y)
	r.NoteWrite(x)
	if r.LastMod(x) != 3 || r.LastMod(y) != 2 {
		t.Fatalf("lastmod = (%d,%d)", r.LastMod(x), r.LastMod(y))
	}
}

func TestInvalidate(t *testing.T) {
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 10)
	var rec LoopRecord
	r.Record(&rec, []dist.DAD{x}, nil)
	if !rec.valid {
		t.Fatal("record should be valid after Record")
	}
	rec.Invalidate()
	if rec.valid || r.Check(&rec, []dist.DAD{x}, nil) {
		t.Fatal("invalidated record reused")
	}
}

func TestSharedIndirectionAcrossLoops(t *testing.T) {
	// Two loops indexing through the same indirection array keep
	// independent records; a write invalidates both.
	r := New()
	a := dist.NewDADAllocator()
	x := a.New(dist.Block, 100)
	ia := a.New(dist.Block, 50)
	var l1, l2 LoopRecord
	r.Record(&l1, []dist.DAD{x}, []dist.DAD{ia})
	r.Record(&l2, []dist.DAD{x}, []dist.DAD{ia})
	r.NoteWrite(ia)
	if r.Check(&l1, []dist.DAD{x}, []dist.DAD{ia}) ||
		r.Check(&l2, []dist.DAD{x}, []dist.DAD{ia}) {
		t.Fatal("shared indirection write must invalidate every loop")
	}
}
