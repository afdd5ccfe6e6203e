package lang

import (
	"fmt"

	"chaos/internal/core"
	"chaos/internal/dist"
	"chaos/internal/geocol"
)

// Env binds a program to its host environment: initial array contents
// (the paper's "call read_data(...)") and a completion hook for
// inspecting results. All fields are optional except those the program
// actually uses.
type Env struct {
	// RealData provides READ contents for REAL*8 arrays by global index.
	RealData map[string]func(g int) float64
	// IntData provides READ contents for INTEGER arrays by global index.
	IntData map[string]func(g int) int
	// OnFinish, when set, runs on every rank after the program's END
	// with the final distributed arrays.
	OnFinish func(s *core.Session, reals map[string]*core.Array, ints map[string]*core.IntArray)
	// DisableScheduleReuse forces a fresh inspector before every
	// FORALL execution — the "compiler without schedule reuse"
	// baseline of the paper's Tables 1 and 2.
	DisableScheduleReuse bool
}

// forallRuntime is the per-rank, per-FORALL cached state: the CHAOS
// loop object whose saved inspector the registry guards, and the
// identity indirection arrays synthesized for directly indexed
// accesses. It lives in the exec state, not on the shared AST, so one
// compiled Program can be executed concurrently by every rank.
type forallRuntime struct {
	loop            *core.Loop
	iterPartitioned bool
}

// execState is the per-rank interpreter state.
type execState struct {
	s       *core.Session
	env     *Env
	reals   map[string]*core.Array
	ints    map[string]*core.IntArray
	maps    map[string]*core.Mapping
	grs     map[string]*geocol.Graph
	foralls map[*forallStmt]*forallRuntime
}

// Execute runs the compiled program on one rank of the simulated
// machine. It must be called inside a machine SPMD body with the same
// program and environment on every rank. The per-directive bookkeeping
// a compiler-generated code performs (DAD tracking, plan dispatch) is
// charged to the virtual clock.
func (p *Program) Execute(s *core.Session, env *Env) error {
	if env == nil {
		env = &Env{}
	}
	st := &execState{
		s:       s,
		env:     env,
		reals:   map[string]*core.Array{},
		ints:    map[string]*core.IntArray{},
		maps:    map[string]*core.Mapping{},
		grs:     map[string]*geocol.Graph{},
		foralls: map[*forallStmt]*forallRuntime{},
	}
	for name, ext := range p.RealArrays {
		st.reals[name] = s.NewArray(name, ext)
	}
	for name, ext := range p.IntArrays {
		st.ints[name] = s.NewIntArray(name, ext)
	}
	if err := st.execBlock(p.Body); err != nil {
		return err
	}
	if env.OnFinish != nil {
		env.OnFinish(s, st.reals, st.ints)
	}
	return nil
}

func (st *execState) execBlock(body []stmt) error {
	for _, s := range body {
		if err := st.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (st *execState) execStmt(s stmt) error {
	// Plan dispatch overhead of compiler-generated code.
	st.s.C.Words(4)
	switch x := s.(type) {
	case *readStmt:
		for _, n := range x.Names {
			if a, ok := st.reals[n]; ok {
				f := st.env.RealData[n]
				if f == nil {
					return fmt.Errorf("line %d: READ %s: no host RealData binding", x.ln, n)
				}
				a.FillByGlobal(f)
				continue
			}
			a := st.ints[n]
			f := st.env.IntData[n]
			if f == nil {
				return fmt.Errorf("line %d: READ %s: no host IntData binding", x.ln, n)
			}
			a.FillByGlobal(f)
		}
		return nil
	case *constructStmt:
		in := core.GeoColInput{}
		for _, gn := range x.Geometry {
			in.Geometry = append(in.Geometry, st.reals[gn])
		}
		if x.Load != "" {
			in.Load = st.reals[x.Load]
		}
		if x.Link1 != "" {
			in.Link1 = st.ints[x.Link1]
			in.Link2 = st.ints[x.Link2]
		}
		st.grs[x.G] = st.s.Construct(x.N, in)
		return nil
	case *setStmt:
		g, ok := st.grs[x.G]
		if !ok {
			return fmt.Errorf("line %d: SET: GeoCoL %q not constructed", x.ln, x.G)
		}
		m, err := st.s.SetPartitioning(g, x.spec, st.s.C.Procs())
		if err != nil {
			return fmt.Errorf("line %d: %w", x.ln, err)
		}
		st.maps[x.Map] = m
		return nil
	case *distributeStmt:
		m := st.s.MappingFromIntArray(st.ints[x.MapArr])
		var reals []*core.Array
		var ints []*core.IntArray
		for _, n := range x.arrays {
			if a, ok := st.reals[n]; ok {
				reals = append(reals, a)
			} else if a, ok := st.ints[n]; ok {
				ints = append(ints, a)
			}
		}
		st.s.Redistribute(m, reals, ints)
		return nil
	case *redistributeStmt:
		m, ok := st.maps[x.Map]
		if !ok {
			return fmt.Errorf("line %d: REDISTRIBUTE: unknown distribution %q", x.ln, x.Map)
		}
		var reals []*core.Array
		var ints []*core.IntArray
		for _, n := range x.arrays {
			if a, ok := st.reals[n]; ok {
				reals = append(reals, a)
			} else if a, ok := st.ints[n]; ok {
				ints = append(ints, a)
			}
		}
		if len(reals)+len(ints) == 0 {
			return fmt.Errorf("line %d: REDISTRIBUTE %s: no arrays aligned", x.ln, x.Decomp)
		}
		st.s.Redistribute(m, reals, ints)
		return nil
	case *doStmt:
		for k := x.Lo; k <= x.Hi; k++ {
			if err := st.execBlock(x.Body); err != nil {
				return err
			}
		}
		return nil
	case *forallStmt:
		return st.execForall(x)
	default:
		return fmt.Errorf("lang: unknown statement %T", s)
	}
}

// forallKernel is one rank's kernel of a FORALL: for every iteration of
// the strip it fills the operand row from the gathered reads, calls each
// assignment's compiled closure over it and combines the results.
type forallKernel struct {
	f   *forallStmt
	row []float64 // one slot per gathered read
}

// Strip runs one strip of the FORALL.
//
//chaos:hotpath
func (k *forallKernel) Strip(s *core.Strip) {
	row := k.row
	for b, iter := range s.Iters {
		for j := range s.Reads {
			row[j] = s.Reads[j].At(b)
		}
		for a := range s.Writes {
			s.Writes[a].Combine(b, k.f.Assigns[a].eval(iter, row))
		}
	}
}

// execForall realizes the inspector/executor transformation for one
// FORALL encounter. The loop object is created on first encounter; the
// registry decides whether its saved inspector can be reused.
func (st *execState) execForall(f *forallStmt) error {
	rt := st.foralls[f]
	if rt == nil {
		rt = &forallRuntime{}
		// Synthesize identity indirection arrays for direct accesses.
		var identity *core.IntArray
		getIdentity := func() *core.IntArray {
			if identity == nil {
				identity = st.s.NewIntArray(fmt.Sprintf("__ident_%d", f.ln), f.N)
				identity.FillByGlobal(func(g int) int { return g })
			}
			return identity
		}
		indOf := func(r arrayRef) *core.IntArray {
			if r.Ind == "" {
				return getIdentity()
			}
			return st.ints[r.Ind]
		}
		var reads []core.Read
		for _, r := range f.reads {
			reads = append(reads, core.Read{Arr: st.reals[r.Array], Ind: indOf(r)})
		}
		var writes []core.Write
		for _, a := range f.Assigns {
			writes = append(writes, core.Write{Arr: st.reals[a.Target.Array], Ind: indOf(a.Target), Op: a.Op})
		}
		// The compiled closures are stateless and shared by every rank.
		// The virtual-clock charge per iteration models the CSE'd code
		// a compiler would emit (see modeledFlops).
		flops := modeledFlops(f.Assigns)
		rt.loop = st.s.NewLoop(fmt.Sprintf("forall@%d", f.ln), f.N, reads, writes, flops, &forallKernel{f, make([]float64, len(f.reads))})
		st.foralls[f] = rt
	}
	// Paper Section 5: "loop iterations are partitioned at runtime
	// ... whenever a loop accesses at least one irregularly
	// distributed array."
	if !rt.iterPartitioned && st.anyIrregular(f) {
		rt.loop.PartitionIterations(core.DefaultIterPolicy)
		rt.iterPartitioned = true
	}
	if st.env.DisableScheduleReuse {
		rt.loop.ExecuteNoReuse()
	} else {
		rt.loop.Execute()
	}
	return nil
}

func (st *execState) anyIrregular(f *forallStmt) bool {
	for _, r := range f.reads {
		if st.reals[r.Array].DAD().Kind == dist.Irregular {
			return true
		}
	}
	for _, a := range f.Assigns {
		if st.reals[a.Target.Array].DAD().Kind == dist.Irregular {
			return true
		}
	}
	return false
}
