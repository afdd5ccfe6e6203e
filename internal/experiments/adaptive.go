package experiments

import (
	"fmt"
	"sync"

	"chaos/internal/core"
	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/partition"
	"chaos/internal/xrand"
)

// This file is the adaptive-mesh REDISTRIBUTE study the paper could
// not afford to run (the ROADMAP's "Table-2-style column"): an Euler
// edge sweep over a mesh whose connectivity is adapted every epoch (a
// fraction of edges rewired), repartitioned each time through a
// core.Repartitioner. Epoch 0 partitions cold; later epochs reuse the
// retained multilevel coarsening ladder and re-run refinement only,
// and the study reports the warm-vs-cold partition-time and edge-cut
// comparison per epoch, plus the remap traffic each repartition
// causes. Every adapted epoch's graph is also partitioned cold
// (through a second, always-invalidated Repartitioner), so each warm
// row carries the exact same-graph cold comparison; that roughly
// doubles the study's partitioning work.

// The study's fixed shape: adaptEpochs mesh adaptations after the
// initial build, each re-pointing one endpoint of adaptRewire × nedge
// edges drawn from a stream seeded with adaptSeed.
const (
	adaptEpochs = 4
	adaptRewire = 0.05
	adaptSeed   = 99
)

// AdaptiveConfig configures the adaptive-mesh repartitioning study.
type AdaptiveConfig struct {
	Procs int
	NNode int
	Iters int // executor iterations per epoch
	Spec  partition.Spec
}

// AdaptiveEpoch is one row of the study: the repartition mode and
// cost of one adaptation epoch.
type AdaptiveEpoch struct {
	Epoch int `json:"epoch"`
	// Mode is "cold" (full partitioner run) or "warm" (ladder reuse).
	Mode string `json:"mode"`
	// PartitionS is the virtual partition time of this epoch's Map
	// call (max over ranks).
	PartitionS float64 `json:"partition_s"`
	// ColdPartitionS is the same-graph cold reference time (0 when
	// the epoch itself ran cold).
	ColdPartitionS float64 `json:"cold_partition_s,omitempty"`
	// Cut is the global edge cut of the produced partition on this
	// epoch's connectivity.
	Cut int `json:"cut"`
	// ColdCut is the same-graph cold reference cut (0 as above).
	ColdCut int `json:"cold_cut,omitempty"`
	// MovedVertices counts vertices whose owner changed relative to
	// the previous epoch's mapping — the per-array remap traffic of
	// the REDISTRIBUTE that follows.
	MovedVertices int `json:"moved_vertices"`
	// RemapS and ExecutorS are the virtual remap and executor times of
	// the epoch (max over ranks).
	RemapS    float64 `json:"remap_s"`
	ExecutorS float64 `json:"executor_s"`
}

// AdaptiveReport is the machine-readable result of AdaptiveStudy.
type AdaptiveReport struct {
	Workload string          `json:"workload"`
	Procs    int             `json:"procs"`
	Spec     string          `json:"spec"`
	Rewire   float64         `json:"rewire"`
	Iters    int             `json:"iters_per_epoch"`
	Epochs   []AdaptiveEpoch `json:"epochs"`
	// WarmMeanS / ColdMeanS are the mean warm partition time and the
	// mean of its same-graph cold references.
	WarmMeanS float64 `json:"warm_mean_s,omitempty"`
	ColdMeanS float64 `json:"cold_mean_s,omitempty"`
	// WarmOverCold is WarmMeanS / ColdMeanS — the headline incremental
	// repartitioning payoff (smaller is better).
	WarmOverCold float64 `json:"warm_over_cold,omitempty"`
	// WarmCutOverCold is the mean ratio of warm cut to same-graph cold
	// cut (1.0 = no quality loss).
	WarmCutOverCold float64 `json:"warm_cut_over_cold,omitempty"`
}

// rewireEpochs precomputes the edge lists of every adaptation epoch:
// each epoch re-points one endpoint of adaptRewire×nedge random edges,
// so every rank sees identical "mesh adaptation" results.
func rewireEpochs(m *mesh.Mesh) (e1s, e2s [][]int) {
	nedge := m.NEdge()
	e1s = make([][]int, adaptEpochs+1)
	e2s = make([][]int, adaptEpochs+1)
	e1s[0], e2s[0] = m.E1, m.E2
	rng := xrand.New(adaptSeed)
	for ep := 1; ep <= adaptEpochs; ep++ {
		e1 := append([]int(nil), e1s[ep-1]...)
		e2 := append([]int(nil), e2s[ep-1]...)
		for k := 0; k < int(adaptRewire*float64(nedge)); k++ {
			e := rng.Intn(nedge)
			e2[e] = rng.Intn(m.NNode)
		}
		e1s[ep], e2s[ep] = e1, e2
	}
	return e1s, e2s
}

// AdaptiveStudy runs the adaptive-mesh repartitioning pipeline and
// returns the per-epoch cold/warm table.
func AdaptiveStudy(cfg AdaptiveConfig) (*AdaptiveReport, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 10
	}
	if cfg.NNode <= 0 {
		cfg.NNode = 2000
	}
	m := mesh.Generate(cfg.NNode, 1993)
	nedge := m.NEdge()
	e1s, e2s := rewireEpochs(m)

	rep := &AdaptiveReport{
		Workload: fmt.Sprintf("mesh%d", m.NNode),
		Procs:    cfg.Procs,
		Spec:     cfg.Spec.String(),
		Rewire:   adaptRewire,
		Iters:    cfg.Iters,
	}
	var mu sync.Mutex
	err := machine.Run(machine.IPSC860(cfg.Procs), func(c *machine.Ctx) {
		s := core.NewSession(c)
		x := s.NewArray("x", m.NNode)
		y := s.NewArray("y", m.NNode)
		x.FillByGlobal(m.InitialState)
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("end_pt1", nedge)
		e2 := s.NewIntArray("end_pt2", nedge)
		e1.FillByGlobal(func(g int) int { return m.E1[g] })
		e2.FillByGlobal(func(g int) int { return m.E2[g] })
		in := core.GeoColInput{Link1: e1, Link2: e2}

		rp, err := s.NewRepartitioner(cfg.Spec)
		if err != nil {
			panic(err)
		}
		coldRp, err := s.NewRepartitioner(cfg.Spec)
		if err != nil {
			panic(err)
		}

		loop := s.NewLoop("sweep", nedge,
			[]core.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
			[]core.Write{{Arr: y, Ind: e1, Op: core.Add}, {Arr: y, Ind: e2, Op: core.Add}},
			mesh.EulerFlops, mesh.EulerFlux)
		loop.PartitionIterations(iterpart.AlmostOwnerComputes)

		var prevFull []int
		for ep := 0; ep <= adaptEpochs; ep++ {
			if ep > 0 {
				cur1, cur2 := e1s[ep], e2s[ep]
				e1.FillByGlobal(func(g int) int { return cur1[g] })
				e2.FillByGlobal(func(g int) int { return cur2[g] })
			}
			statsBefore := rp.Stats()
			pt0 := s.Timer(core.TimerPartition)
			mapping, err := rp.Map(m.NNode, in, cfg.Procs)
			if err != nil {
				panic(err)
			}
			partS := c.MaxFloat(s.Timer(core.TimerPartition) - pt0)
			mode := "cold"
			if st := rp.Stats(); st.Warm > statsBefore.Warm {
				mode = "warm"
			}

			// Only rank 0 records the epoch, so the part vectors go to
			// it alone; GatherInts charges every rank what AllGatherInts
			// would.
			full := c.GatherInts(0, mapping.LocalPart())

			var coldS float64
			var coldFull []int
			if ep > 0 {
				coldRp.Invalidate()
				ct0 := s.Timer(core.TimerPartition)
				cm, err := coldRp.Map(m.NNode, in, cfg.Procs)
				if err != nil {
					panic(err)
				}
				coldS = c.MaxFloat(s.Timer(core.TimerPartition) - ct0)
				coldFull = c.GatherInts(0, cm.LocalPart())
			}

			rm0 := s.Timer(core.TimerRemap)
			s.Redistribute(mapping, []*core.Array{x, y}, nil)
			remapS := c.MaxFloat(s.Timer(core.TimerRemap) - rm0)

			ex0 := s.Timer(core.TimerExecutor)
			for it := 0; it < cfg.Iters; it++ {
				loop.Execute()
			}
			exS := c.MaxFloat(s.Timer(core.TimerExecutor) - ex0)

			if c.Rank() == 0 {
				moved := 0
				if prevFull != nil {
					for i, p := range full {
						if prevFull[i] != p {
							moved++
						}
					}
				}
				prevFull = full
				coldCut := 0
				if ep > 0 {
					coldCut = partition.EdgeListCut(e1s[ep], e2s[ep], coldFull)
				}
				mu.Lock()
				rep.Epochs = append(rep.Epochs, AdaptiveEpoch{
					Epoch: ep, Mode: mode,
					PartitionS: partS, ColdPartitionS: coldS,
					Cut: partition.EdgeListCut(e1s[ep], e2s[ep], full), ColdCut: coldCut,
					MovedVertices: moved, RemapS: remapS, ExecutorS: exS,
				})
				mu.Unlock()
			}
		}
	})
	if err != nil {
		return nil, err
	}

	warmN := 0
	for _, e := range rep.Epochs {
		if e.Mode != "warm" || e.ColdPartitionS == 0 {
			continue
		}
		warmN++
		rep.WarmMeanS += e.PartitionS
		rep.ColdMeanS += e.ColdPartitionS
		rep.WarmCutOverCold += float64(e.Cut) / float64(e.ColdCut)
	}
	if warmN > 0 {
		rep.WarmMeanS /= float64(warmN)
		rep.ColdMeanS /= float64(warmN)
		rep.WarmOverCold = rep.WarmMeanS / rep.ColdMeanS
		rep.WarmCutOverCold /= float64(warmN)
	}
	return rep, nil
}
