package partition

import (
	"errors"
	"math"
	"strings"
	"testing"

	"chaos/internal/xrand"
)

func TestParseSpecBareNames(t *testing.T) {
	for _, name := range []string{"BLOCK", "RCB", "RSB", "MULTILEVEL", "STREAM"} {
		sp, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", name, err)
		}
		if sp != (Spec{Method: Method(name)}) {
			t.Errorf("ParseSpec(%q) = %+v, want bare method", name, sp)
		}
		if sp.String() != name {
			t.Errorf("String() = %q, want %q", sp.String(), name)
		}
	}
}

func TestParseSpecOptions(t *testing.T) {
	sp, err := ParseSpec("MULTILEVEL(CoarsenTo=200, ParallelThreshold=512, Seed=7, Imbalance=0.05)")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Method: MethodMultilevel, CoarsenTo: 200, ParallelThreshold: 512,
		Seed: 7, Imbalance: 0.05}
	if sp != want {
		t.Errorf("parsed %+v, want %+v", sp, want)
	}
	// String renders a form ParseSpec accepts (round trip).
	back, err := ParseSpec(sp.String())
	if err != nil {
		t.Fatalf("round trip of %q: %v", sp.String(), err)
	}
	if back != sp {
		t.Errorf("round trip %+v != %+v", back, sp)
	}
	// Keys are case-insensitive (the Fortran-D front end upcases).
	up, err := ParseSpec("MULTILEVEL(COARSENTO=200,SEED=7)")
	if err != nil {
		t.Fatal(err)
	}
	if up.CoarsenTo != 200 || up.Seed != 7 {
		t.Errorf("upcased options not applied: %+v", up)
	}
	// Every field survives String → ParseSpec, whatever its value:
	// negative knobs (a negative ParallelThreshold is meaningful) and
	// the full uint64 seed range included.
	rng := xrand.New(33)
	methods := []Method{MethodMultilevel, MethodStream, MethodRSB, MethodBlock}
	for i := 0; i < 500; i++ {
		sp := Spec{Method: methods[rng.Intn(len(methods))]}
		if rng.Intn(2) == 0 {
			sp.CoarsenTo = rng.Intn(2001) - 1000
		}
		if rng.Intn(2) == 0 {
			sp.ParallelThreshold = rng.Intn(8193) - 4096
		}
		if rng.Intn(2) == 0 {
			sp.Seed = rng.Uint64()
		}
		if rng.Intn(2) == 0 {
			sp.Imbalance = rng.Float64() - 0.5
		}
		if rng.Intn(2) == 0 {
			sp.Restreams = rng.Intn(41) - 20
		}
		if rng.Intn(2) == 0 {
			sp.BalanceSlack = rng.Float64()
		}
		back, err := ParseSpec(sp.String())
		if err != nil || back != sp {
			t.Fatalf("round trip of %+v via %q: %+v, %v", sp, sp.String(), back, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"MULTILEVEL(CoarsenTo=200",
		"MULTILEVEL(CoarsenTo)",
		"MULTILEVEL(Bogus=1)",
		"MULTILEVEL(CoarsenTo=x)",
		"(CoarsenTo=1)",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestSpecResolveAppliesOptions(t *testing.T) {
	sp := Spec{Method: MethodMultilevel, CoarsenTo: 250, ParallelThreshold: -1, Seed: 9, Imbalance: 0.03}
	p, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ml, ok := p.(Multilevel)
	if !ok {
		t.Fatalf("resolved %T, want Multilevel", p)
	}
	if ml.CoarsenTo != 250 || ml.ParallelThreshold != -1 || ml.Seed != 9 || ml.Imbalance != 0.03 {
		t.Errorf("options not applied: %+v", ml)
	}
}

func TestSpecResolveErrors(t *testing.T) {
	cases := []struct {
		sp    Spec
		frag  string
		value bool // an option's value is rejected: the error wraps ErrSpecValue
	}{
		{Spec{}, "no method", false},
		{Spec{Method: "NOPE"}, "unknown partitioner", false},
		// KL (the paper's reference [15]) was retired from the registry.
		{Spec{Method: "KL"}, "unknown partitioner", false},
		{Spec{Method: MethodRCB, CoarsenTo: 10}, "does not accept multilevel tuning", false},
		{Spec{Method: MethodRSB, ParallelThreshold: -1}, "does not accept multilevel tuning", false},
		{Spec{Method: MethodBlock, Seed: 3}, "does not accept a Seed", false},
		{Spec{Method: MethodMultilevel, Imbalance: 0.9}, "Imbalance", true},
		{Spec{Method: MethodMultilevel, CoarsenTo: -5}, "CoarsenTo -5 is negative", true},
		// NaN passes any "x < lo || x >= hi" range check.
		{Spec{Method: MethodMultilevel, Imbalance: math.NaN()}, "Imbalance NaN", true},
		{Spec{Method: MethodStream, BalanceSlack: math.NaN()}, "BalanceSlack NaN", true},
		{Spec{Method: MethodStream, BalanceSlack: -0.1}, "BalanceSlack -0.1", true},
	}
	for _, c := range cases {
		_, err := c.sp.Resolve()
		if err == nil {
			t.Errorf("Resolve(%+v) succeeded, want error containing %q", c.sp, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Resolve(%+v) error %q does not mention %q", c.sp, err, c.frag)
		}
		if errors.Is(err, ErrSpecValue) != c.value {
			t.Errorf("Resolve(%+v) error %q: errors.Is(ErrSpecValue) = %v, want %v", c.sp, err, !c.value, c.value)
		}
	}
}

func TestSpecDefaultsMatchStringPath(t *testing.T) {
	// The zero-option spec must resolve to the registry value itself,
	// which is what guarantees typed and string paths produce
	// bit-identical partitions.
	for _, name := range []string{"BLOCK", "RCB", "RSB", "MULTILEVEL"} {
		byName, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		bySpec, err := Spec{Method: Method(name)}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if byName != bySpec {
			t.Errorf("%s: typed resolve %#v differs from Lookup %#v", name, bySpec, byName)
		}
	}
}
