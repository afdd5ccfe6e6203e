package experiments

import (
	"testing"

	"chaos/internal/partition"
)

// TestSimulatedElapsedFarBelowVirtual is the regression test for
// MaxClock's old wall-time blind spot: the simulator charges iPSC/860
// virtual seconds, which say nothing about host cost. Now that every
// run also reports wall time (machine.Stats.Elapsed → Phases.Wall),
// pin the relationship on the acceptance mesh: simulating the 21952-
// node Euler pipeline costs far less host time than the virtual time
// it reports (measured ~16x apart on one core; asserted at 4x for
// slow-CI headroom). If Wall ever approaches Total here, either the
// wall-time plumbing broke or the simulator grew pathological
// overhead.
func TestSimulatedElapsedFarBelowVirtual(t *testing.T) {
	if testing.Short() {
		t.Skip("21952-node mesh pipeline")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates host wall time; the ratio is meaningless")
	}
	ph, err := Run(Config{
		Procs: 8, Workload: MeshWorkload(21000),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ph.Wall <= 0 {
		t.Fatalf("simulated run reported no wall time: %+v", ph)
	}
	if ph.Wall >= ph.Total()/4 {
		t.Errorf("simulated wall time %.3fs not far below virtual total %.3fs", ph.Wall, ph.Total())
	}
}
