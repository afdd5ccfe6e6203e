package slottab

import "testing"

// TestTableAgainstMap inserts colliding and repeated keys across
// several Resets of one Table (growing and shrinking) and checks every
// lookup against a Go map.
func TestTableAgainstMap(t *testing.T) {
	var tab Table
	for _, n := range []int{0, 1, 7, 1000, 3, 300} {
		tab.Reset(n)
		want := map[int]int{}
		for i := 0; i < n; i++ {
			// Multiples of a power of two collide in the low bits; the
			// repeats must find their first entry again.
			k := (i % (n/2 + 1)) << 20
			e := tab.Entry(k)
			if v, ok := want[k]; ok {
				if e.Key1 != k+1 || e.Val != v {
					t.Fatalf("n=%d key %d: entry %+v, want val %d", n, k, *e, v)
				}
				continue
			}
			if e.Key1 != 0 {
				t.Fatalf("n=%d key %d: absent key found entry %+v", n, k, *e)
			}
			*e = Entry{k + 1, i}
			want[k] = i
		}
		for k, v := range want {
			if e := tab.Entry(k); e.Key1 != k+1 || e.Val != v {
				t.Fatalf("n=%d key %d: entry %+v, want val %d", n, k, *e, v)
			}
		}
		if e := tab.Entry(1<<40 + 1); e.Key1 != 0 {
			t.Fatalf("n=%d: never-inserted key found entry %+v", n, *e)
		}
	}
}
