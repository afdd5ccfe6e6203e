package scratch

import "testing"

// TestRowsAlternatesTwoSlabs pins what makes Rows safe to send without
// a copy, for both element types: consecutive uses never share memory —
// neither a row nor a header — the use after next gets the first one's
// back (so steady state allocates nothing), every row is empty with
// exactly its counted capacity, a use with another rank count sizes the
// counters, the rows and the receive headers anew, and two shapes used
// alternately settle one in each slab.
func TestRowsAlternatesTwoSlabs(t *testing.T) {
	t.Run("int", testRowsAlternate[int])
	t.Run("float64", testRowsAlternate[float64])
}

func testRowsAlternate[T int | float64](t *testing.T) {
	var rr Rows[T]
	// lay takes a use of the given counts and fills every element of
	// every row with the use's mark.
	lay := func(mark T, counts ...int) [][]T {
		copy(rr.Counts(len(counts)), counts)
		rows := rr.Lay()
		if len(rows) != len(counts) || len(rr.In()) != len(counts) {
			t.Fatalf("counts %v: %d rows, %d receive headers", counts, len(rows), len(rr.In()))
		}
		for r, k := range counts {
			if len(rows[r]) != 0 || cap(rows[r]) != k {
				t.Fatalf("counts %v: row %d has len %d cap %d", counts, r, len(rows[r]), cap(rows[r]))
			}
			for i := 0; i < k; i++ {
				rows[r] = append(rows[r], mark)
			}
		}
		return rows
	}
	// intact demands that a use's rows still hold its counts and mark.
	intact := func(what string, rows [][]T, mark T, counts ...int) {
		t.Helper()
		for r, k := range counts {
			if len(rows[r]) != k {
				t.Fatalf("%s: row %d has length %d, want %d", what, r, len(rows[r]), k)
			}
			for _, x := range rows[r] {
				if x != mark {
					t.Fatalf("%s: row %d holds %v, want %v throughout", what, r, rows[r], mark)
				}
			}
		}
	}
	first := lay(1, 2, 0, 3)
	second := lay(2, 1, 4, 0, 0, 0, 0, 0, 2) // more ranks
	intact("the second use wrote into the first one's rows", first, 1, 2, 0, 3)
	third := lay(3, 3) // fewer ranks: the first slab, the first header table
	if &third[0][0] != &first[0][0] {
		t.Error("the third use did not get the first one's slab back")
	}
	intact("the third use wrote into the second one's rows", second, 2, 1, 4, 0, 0, 0, 0, 0, 2)
	lay(4, 1, 1, 1, 1, 1, 1, 1, 1)
	intact("the fourth use wrote into the third one's rows", third, 3, 3)

	shape := []int{2, 0, 3}
	for i := 0; i < 4; i++ {
		lay(5, shape...) // warm both slabs to this shape
	}
	if n := testing.AllocsPerRun(10, func() { lay(5, shape...) }); n != 0 {
		t.Errorf("a steady-state use allocates %v times", n)
	}
	if c := rr.Counts(5); len(c) != 5 || c[0]+c[1]+c[2]+c[3]+c[4] != 0 {
		t.Errorf("Counts(5) after other sizes = %v, want five zeros", c)
	}

	// A site that sends two shapes alternately, as a schedule moved in
	// both directions every step does, settles each slab on one of them.
	var two Rows[T]
	for i := 0; i < 6; i++ {
		copy(two.Counts(2), []int{7, 1})
		two.Lay()
		copy(two.Counts(2), []int{1, 2})
		two.Lay()
	}
	if a, b := cap(two.flat[0]), cap(two.flat[1]); min(a, b) != 3 || max(a, b) != 8 {
		t.Errorf("two shapes of 8 and 3 alternated: slabs hold %d and %d", a, b)
	}
}
