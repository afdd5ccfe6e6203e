// Package experiments is the benchmark harness that regenerates every
// table of the paper's evaluation (Section 6) on the simulated
// iPSC/860. Each experiment runs the full Figure 2 pipeline — GeoCoL
// construction, partitioning, array and iteration remapping, inspector,
// and 100 executor iterations — and reports per-phase virtual-time
// maxima across ranks, which is what the paper's tables tabulate.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"chaos/internal/core"
	"chaos/internal/machine"
	"chaos/internal/md"
	"chaos/internal/mesh"
	"chaos/internal/partition"
)

// Workload is one irregular-loop template: the paper's unstructured
// Euler edge sweep or the molecular-dynamics electrostatic loop (both
// instances of loop L2).
type Workload struct {
	Name  string
	NNode int
	NIter int // edges or nonbonded pairs
	E1    []int
	E2    []int
	X     []float64
	Y     []float64
	Z     []float64
	// Init gives node g's initial state value.
	Init func(g int) float64
	// Kernel computes the two reduction contributions of every
	// iteration of a strip.
	Kernel core.Kernel
	// Flops models the kernel's cost per iteration.
	Flops int
	// HasMDGeometry marks the MD workload (kernel closes over pair
	// geometry; compiler mode is not available).
	MD bool
}

var (
	wlMu    sync.Mutex
	wlCache = map[string]*Workload{}
)

// MeshWorkload returns the Euler edge-sweep template on a synthetic
// unstructured mesh of roughly n nodes. Results are cached: the paper's
// 10K and 53K meshes are reused across table cells.
func MeshWorkload(n int) *Workload {
	key := fmt.Sprintf("mesh%d", n)
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache[key]; ok {
		return w
	}
	m := mesh.Generate(n, 1993)
	w := &Workload{
		Name:   key,
		NNode:  m.NNode,
		NIter:  m.NEdge(),
		E1:     m.E1,
		E2:     m.E2,
		X:      m.X,
		Y:      m.Y,
		Z:      m.Z,
		Init:   m.InitialState,
		Kernel: mesh.EulerFlux,
		Flops:  mesh.EulerFlops,
	}
	wlCache[key] = w
	return w
}

// Water648 returns the 648-atom water electrostatic force loop.
func Water648() *Workload {
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache["water648"]; ok {
		return w
	}
	sys := md.Water(216, 4.5, 1993)
	w := &Workload{
		Name:   "water648",
		NNode:  sys.NAtom,
		NIter:  sys.NPair(),
		E1:     sys.P1,
		E2:     sys.P2,
		X:      sys.X,
		Y:      sys.Y,
		Z:      sys.Z,
		Init:   func(g int) float64 { return sys.Q[g] },
		Kernel: sys.ForceKernel(),
		Flops:  md.ForceFlops,
		MD:     true,
	}
	wlCache["water648"] = w
	return w
}

// Config selects one experiment cell.
type Config struct {
	Procs    int
	Workload *Workload
	// Spec selects and tunes the partitioner (partition.Spec{Method: partition.MethodRCB},
	// partition.Spec{Method: partition.MethodMultilevel, ...}, ...).
	Spec     partition.Spec
	Reuse    bool // communication-schedule reuse on/off
	Iters    int  // executor iterations (paper: 100)
	Compiler bool // drive through the Fortran-90D front end
	// Backend selects the machine execution backend. The zero value is
	// the classic virtual-clock simulator; machine.Real runs the same
	// pipeline on host cores with physical payload delivery, filling
	// Phases.Wall with authoritative wall time.
	//chaosvet:ignore testonly TestBackendPhasesIdentical reaches the Real backend (chaos.RunReal's) through it
	Backend machine.Backend
}

// Phases reports per-phase virtual-time maxima across ranks, in
// seconds, matching the rows of the paper's Tables 2-4.
type Phases struct {
	GraphGen  float64
	Partition float64
	Remap     float64
	Inspector float64
	Executor  float64
	// Wall is the host wall-clock time of the whole cell in seconds,
	// max-reduced across ranks (machine.Stats.Elapsed). On the Real
	// backend it is the authoritative timing; on Simulated it merely
	// records simulator overhead. Not part of Total, which stays the
	// paper's virtual-seconds row.
	Wall float64
}

// Total is the sum of all phases (the paper's "Total" row).
func (p Phases) Total() float64 {
	return p.GraphGen + p.Partition + p.Remap + p.Inspector + p.Executor
}

// Run executes one experiment cell and returns its phase times.
func Run(cfg Config) (Phases, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 100
	}
	if cfg.Compiler {
		return runCompiler(cfg)
	}
	return runHand(cfg)
}

// machineConfig builds the iPSC/860 machine of one experiment cell,
// applying the cell's execution backend.
func machineConfig(cfg Config) machine.Config {
	mc := machine.IPSC860(cfg.Procs)
	mc.Backend = cfg.Backend
	return mc
}

// inputCaps resolves which GeoCoL components the configured
// partitioner consumes, from its declared capability metadata.
func inputCaps(sp partition.Spec) (partition.Capabilities, error) {
	p, err := sp.Resolve()
	if err != nil {
		return partition.Capabilities{}, err
	}
	return p.Capabilities(), nil
}

// runHand is the hand-parallelized path: direct CHAOS runtime calls,
// the baseline the paper compares compiler-generated code against.
func runHand(cfg Config) (Phases, error) {
	var (
		mu  sync.Mutex
		out Phases
	)
	w := cfg.Workload
	caps, err := inputCaps(cfg.Spec)
	if err != nil {
		return Phases{}, err
	}
	st, err := machine.RunStats(context.Background(), machineConfig(cfg), func(c *machine.Ctx) {
		s := core.NewSession(c)
		x := s.NewArray("x", w.NNode)
		y := s.NewArray("y", w.NNode)
		x.FillByGlobal(w.Init)
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("end_pt1", w.NIter)
		e2 := s.NewIntArray("end_pt2", w.NIter)
		e1.FillByGlobal(func(g int) int { return w.E1[g] })
		e2.FillByGlobal(func(g int) int { return w.E2[g] })

		var in core.GeoColInput
		if caps.NeedsGeometry {
			xc := s.NewArray("xc", w.NNode)
			yc := s.NewArray("yc", w.NNode)
			zc := s.NewArray("zc", w.NNode)
			xc.FillByGlobal(func(g int) float64 { return w.X[g] })
			yc.FillByGlobal(func(g int) float64 { return w.Y[g] })
			zc.FillByGlobal(func(g int) float64 { return w.Z[g] })
			in = core.GeoColInput{Geometry: []*core.Array{xc, yc, zc}}
		} else if caps.NeedsLink {
			in = core.GeoColInput{Link1: e1, Link2: e2}
		}
		g := s.Construct(w.NNode, in)
		m, err := s.SetPartitioning(g, cfg.Spec, cfg.Procs)
		if err != nil {
			panic(err)
		}
		s.Redistribute(m, []*core.Array{x, y}, nil)

		loop := s.NewLoop("sweep", w.NIter,
			[]core.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
			[]core.Write{{Arr: y, Ind: e1, Op: core.Add}, {Arr: y, Ind: e2, Op: core.Add}},
			w.Flops, w.Kernel)
		loop.PartitionIterations(core.DefaultIterPolicy)
		for it := 0; it < cfg.Iters; it++ {
			if cfg.Reuse {
				loop.Execute()
			} else {
				loop.ExecuteNoReuse()
			}
		}
		ph := gatherPhases(s)
		if c.Rank() == 0 {
			mu.Lock()
			out = ph
			mu.Unlock()
		}
	})
	out.Wall = st.Elapsed.Seconds()
	return out, err
}

func gatherPhases(s *core.Session) Phases {
	return Phases{
		GraphGen:  s.TimerMax(core.TimerGraphGen),
		Partition: s.TimerMax(core.TimerPartition),
		Remap:     s.TimerMax(core.TimerRemap),
		Inspector: s.TimerMax(core.TimerInspector),
		Executor:  s.TimerMax(core.TimerExecutor),
	}
}
