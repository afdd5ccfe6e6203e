package experiments

import (
	"encoding/json"
	"testing"

	"chaos/internal/partition"
)

// TestAdaptiveWarmRepartitionPays pins the incremental-repartitioning
// acceptance bar on the adaptive scenario (5% of edges rewired per
// epoch): a warm Repartitioner run must reuse the retained ladder and
// finish in at most half the virtual partition time of a cold
// MULTILEVEL run on the same adapted graph, with an edge cut no more
// than 1.10x the cold cut.
func TestAdaptiveWarmRepartitionPays(t *testing.T) {
	rep, err := AdaptiveStudy(AdaptiveConfig{
		Procs: 4, NNode: 3000, Iters: 2,
		Spec: partition.Spec{Method: partition.MethodMultilevel, ParallelThreshold: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != adaptEpochs+1 {
		t.Fatalf("got %d epochs, want %d", len(rep.Epochs), adaptEpochs+1)
	}
	if rep.Epochs[0].Mode != "cold" {
		t.Errorf("epoch 0 mode %q, want cold", rep.Epochs[0].Mode)
	}
	for _, e := range rep.Epochs[1:] {
		if e.Mode != "warm" {
			t.Errorf("epoch %d mode %q, want warm (ladder should have been retained)", e.Epoch, e.Mode)
			continue
		}
		if e.PartitionS > 0.5*e.ColdPartitionS {
			t.Errorf("epoch %d: warm partition %.3fs exceeds 50%% of cold %.3fs",
				e.Epoch, e.PartitionS, e.ColdPartitionS)
		}
		if float64(e.Cut) > 1.10*float64(e.ColdCut) {
			t.Errorf("epoch %d: warm cut %d exceeds 1.10x cold cut %d", e.Epoch, e.Cut, e.ColdCut)
		}
		if e.MovedVertices == 0 {
			t.Errorf("epoch %d: repartition moved no vertices — remap traffic not measured", e.Epoch)
		}
	}
	if rep.WarmOverCold <= 0 || rep.WarmOverCold > 0.5 {
		t.Errorf("warm/cold partition-time ratio %.3f, want (0, 0.5]", rep.WarmOverCold)
	}

	// The report must round-trip as the machine-readable JSON that
	// chaosbench -adaptive emits.
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back AdaptiveReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec != rep.Spec || len(back.Epochs) != len(rep.Epochs) {
		t.Errorf("JSON round-trip mangled the report: %+v", back)
	}
}

// TestAdaptiveRejectsGeometrySpec pins the early capability check on
// the study path: the study constructs LINK-only graphs, so a
// geometry-consuming spec must be rejected with the descriptive
// validation error rather than a panic deep in the partitioner.
func TestAdaptiveRejectsGeometrySpec(t *testing.T) {
	rep, err := AdaptiveStudy(AdaptiveConfig{
		Procs: 2, NNode: 500, Iters: 1,
		Spec: partition.Spec{Method: partition.MethodRCB},
	})
	if err == nil {
		t.Fatal("RCB spec on a LINK-only adaptive study should fail validation", rep)
	}
}
