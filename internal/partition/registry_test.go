package partition

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
)

// racePartitioner is a minimal partitioner for registry tests.
type racePartitioner struct{ name string }

func (p racePartitioner) Name() string { return p.name }
func (racePartitioner) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	return make([]int, g.LocalN(c.Rank()))
}
func (racePartitioner) Capabilities() Capabilities { return Capabilities{} }

// TestRegistryConcurrentAccess hammers Register, Lookup and Names from
// concurrent goroutines; run under -race this pins that the registry
// is actually lock-correct (Names used to read the map
// without holding the lock).
func TestRegistryConcurrentAccess(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("RACE-%d-%d", w, i)
				Register(racePartitioner{name: name})
				if _, err := Lookup(name); err != nil {
					t.Errorf("Lookup(%q) after Register: %v", name, err)
				}
				if _, err := Lookup("definitely-not-registered"); err == nil {
					t.Error("Lookup of unregistered name succeeded")
				}
				if len(Names()) == 0 {
					t.Error("Names() empty during concurrent registration")
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLookupUnknownError pins the unknown-name error shape: it names
// the missing partitioner and lists what is registered.
func TestLookupUnknownError(t *testing.T) {
	_, err := Lookup("NO-SUCH-METHOD")
	if err == nil {
		t.Fatal("Lookup of unknown name succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown partitioner "NO-SUCH-METHOD"`) {
		t.Errorf("error %q does not name the missing partitioner", msg)
	}
	if !strings.Contains(msg, "MULTILEVEL") || !strings.Contains(msg, "RCB") {
		t.Errorf("error %q does not list the registered names", msg)
	}
}

// TestNamesSorted pins Partitioners()/Names() ordering: sorted,
// duplicate-free, containing every built-in.
func TestNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("Names() contains %q twice", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"BLOCK", "RCB", "RSB", "MULTILEVEL", "STREAM"} {
		if !seen[want] {
			t.Errorf("built-in %q missing from Names(): %v", want, names)
		}
	}
}

// TestBuiltinCapabilities pins the capability metadata of all five
// built-in partitioners.
func TestBuiltinCapabilities(t *testing.T) {
	want := map[string]Capabilities{
		"BLOCK":      {},
		"RCB":        {NeedsGeometry: true},
		"RSB":        {NeedsLink: true},
		"MULTILEVEL": {NeedsLink: true},
		"STREAM":     {NeedsLink: true},
	}
	for name, caps := range want {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Capabilities(); got != caps {
			t.Errorf("%s capabilities %+v, want %+v", name, got, caps)
		}
	}
}

// TestValidateForCapabilityMismatch pins the call-site errors the
// typed path produces for bad spec/graph combinations — the panics
// these used to be.
func TestValidateForCapabilityMismatch(t *testing.T) {
	err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
		linkOnly := geocol.Build(c, 64, geocol.WithLink(
			[]int{0, 1, 2, 3}, []int{1, 2, 3, 4}))
		localN := dist.NewBlock(64, c.Procs()).LocalSize(c.Rank())
		geomOnly := geocol.Build(c, 64, geocol.WithGeometry(make([]float64, localN)))

		if c.Rank() != 0 {
			return // validation is rank-local; checking once is enough
		}
		if _, err := (Spec{Method: MethodRCB}).ValidateFor(linkOnly, 2); err == nil ||
			!strings.Contains(err.Error(), "requires GEOMETRY") {
			t.Errorf("RCB on LINK-only graph: %v, want GEOMETRY requirement error", err)
		}
		if _, err := (Spec{Method: MethodMultilevel}).ValidateFor(geomOnly, 2); err == nil ||
			!strings.Contains(err.Error(), "requires LINK") {
			t.Errorf("MULTILEVEL on GEOMETRY-only graph: %v, want LINK requirement error", err)
		}
		if _, err := (Spec{Method: MethodBlock}).ValidateFor(linkOnly, 0); err == nil ||
			!strings.Contains(err.Error(), "nparts") {
			t.Errorf("nparts=0: %v, want nparts error", err)
		}
		if _, err := (Spec{Method: MethodBlock}).ValidateFor(linkOnly, 2); err != nil {
			t.Errorf("BLOCK on LINK-only graph should validate: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
