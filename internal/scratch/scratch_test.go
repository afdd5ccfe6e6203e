package scratch

import "testing"

// TestRowsAlternatesTwoSlabs pins what makes Rows safe to send without
// a copy: consecutive uses never share memory, the use after next gets
// the first one's back (so steady state allocates nothing), every row
// is empty with exactly its counted capacity, and a use with another
// rank count sizes the counters, the rows and the receive headers anew.
func TestRowsAlternatesTwoSlabs(t *testing.T) {
	var rr Rows
	lay := func(counts ...int) [][]int {
		copy(rr.Counts(len(counts)), counts)
		rows := rr.Lay()
		if len(rows) != len(counts) || len(rr.In()) != len(counts) {
			t.Fatalf("counts %v: %d rows, %d receive headers", counts, len(rows), len(rr.In()))
		}
		for r, k := range counts {
			if len(rows[r]) != 0 || cap(rows[r]) != k {
				t.Fatalf("counts %v: row %d has len %d cap %d", counts, r, len(rows[r]), cap(rows[r]))
			}
			rows[r] = rows[r][:k]
		}
		return rows
	}
	first := lay(2, 0, 3)
	first[0][0], first[2][2] = 7, 9
	second := lay(1, 4, 0, 0, 0, 0, 0, 2) // more ranks
	second[1][0] = 5
	if first[0][0] != 7 || first[2][2] != 9 {
		t.Fatalf("the second use wrote into the first one's rows: %v", first)
	}
	third := lay(3) // fewer ranks: the first slab, the first header table
	if &third[0][0] != &first[0][0] {
		t.Error("the third use did not get the first one's slab back")
	}
	if second[1][0] != 5 {
		t.Fatalf("the third use wrote into the second one's rows: %v", second)
	}
	shape := []int{2, 0, 3}
	for i := 0; i < 4; i++ {
		lay(shape...) // warm both slabs to this shape
	}
	if n := testing.AllocsPerRun(10, func() { lay(shape...) }); n != 0 {
		t.Errorf("a steady-state use allocates %v times", n)
	}
	if c := rr.Counts(5); len(c) != 5 || c[0]+c[1]+c[2]+c[3]+c[4] != 0 {
		t.Errorf("Counts(5) after other sizes = %v, want five zeros", c)
	}
}
