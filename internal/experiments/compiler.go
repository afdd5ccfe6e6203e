package experiments

import (
	"context"
	"fmt"
	"sync"

	"chaos/internal/core"
	"chaos/internal/lang"
	"chaos/internal/machine"
	"chaos/internal/partition"
)

// meshProgram renders the Fortran-90D source of the unstructured-mesh
// template (the paper's Figure 4/5 code) for the given workload,
// partitioner spec and executor iteration count. The spec's string
// form goes straight into the USING clause (the front end parses
// option lists), and the CONSTRUCT clause follows the partitioner's
// declared capabilities. The flux expressions are the same EulerFlux
// the hand path uses, written in the source language, so the compiler
// path pays the (slight) overhead a compiler-generated executor pays
// relative to hand code.
func meshProgram(w *Workload, sp partition.Spec, iters int) string {
	clause := "LINK(nedge, end_pt1, end_pt2)"
	if caps, err := inputCaps(sp); err == nil && caps.NeedsGeometry {
		clause = "GEOMETRY(3, xc, yc, zc)"
	}
	return fmt.Sprintf(`
      PROGRAM template
      PARAMETER (nnode = %d, nedge = %d, niter = %d)
      REAL*8 x(nnode), y(nnode)
      REAL*8 xc(nnode), yc(nnode), zc(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
      DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
      DISTRIBUTE reg(BLOCK), reg2(BLOCK)
      ALIGN x, y, xc, yc, zc WITH reg
      ALIGN end_pt1, end_pt2 WITH reg2
      READ end_pt1, end_pt2, xc, yc, zc, x
      FORALL i = 1, nnode
        y(i) = 0.0
      END FORALL
C$    CONSTRUCT G (nnode, %s)
C$    SET distfmt BY PARTITIONING G USING %s
C$    REDISTRIBUTE reg(distfmt)
      DO t = 1, niter
        FORALL i = 1, nedge
          REDUCE (ADD, y(end_pt1(i)), (0.5*(x(end_pt1(i))+x(end_pt2(i))))**2 + 0.5*(x(end_pt2(i))-x(end_pt1(i))))
          REDUCE (ADD, y(end_pt2(i)), (0.5*(x(end_pt1(i))+x(end_pt2(i))))**2 - 0.5*(x(end_pt2(i))-x(end_pt1(i))))
        END FORALL
      END DO
      END
`, w.NNode, w.NIter, iters, clause, sp.String())
}

// runCompiler drives the experiment through the Fortran-90D front end:
// compile once, then execute the generated plan on every rank.
func runCompiler(cfg Config) (Phases, error) {
	w := cfg.Workload
	if w.MD {
		return Phases{}, fmt.Errorf("experiments: compiler mode supports the mesh template only")
	}
	prog, err := lang.Compile(meshProgram(w, cfg.Spec, cfg.Iters))
	if err != nil {
		return Phases{}, err
	}
	env := &lang.Env{
		RealData: map[string]func(int) float64{
			"X":  w.Init,
			"XC": func(g int) float64 { return w.X[g] },
			"YC": func(g int) float64 { return w.Y[g] },
			"ZC": func(g int) float64 { return w.Z[g] },
		},
		IntData: map[string]func(int) int{
			"END_PT1": func(g int) int { return w.E1[g] },
			"END_PT2": func(g int) int { return w.E2[g] },
		},
		DisableScheduleReuse: !cfg.Reuse,
	}
	var (
		mu  sync.Mutex
		out Phases
	)
	st, err := machine.RunStats(context.Background(), machineConfig(cfg), func(c *machine.Ctx) {
		s := core.NewSession(c)
		if e := prog.Execute(s, env); e != nil {
			panic(e)
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
