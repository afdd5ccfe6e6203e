package partition

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"chaos/internal/geocol"
)

// Method is the typed identity of a partitioning method — the
// replacement for the bare method-name string of the Fortran-D-style
// "SET distfmt BY PARTITIONING G USING <name>" directive. The value is
// the registry name, so custom partitioners linked via Register are
// addressed by Method(p.Name()).
type Method string

// Built-in partitioning methods: BLOCK, RCB and RSB of the paper's
// Section 4.2, MULTILEVEL and STREAM.
const (
	MethodBlock      Method = "BLOCK"
	MethodRCB        Method = "RCB"
	MethodRSB        Method = "RSB"
	MethodMultilevel Method = "MULTILEVEL"
	MethodStream     Method = "STREAM"
)

// Spec is a typed, validated partitioner selection: the method plus
// the tuning knobs that used to require importing internal/partition
// and registering a custom-named Multilevel configuration. The zero
// value of every option keeps the method default, so Spec{Method:
// MethodMultilevel} behaves exactly like the old "MULTILEVEL" string.
//
// A Spec is resolved against the registry and validated against the
// resolved partitioner's Capabilities and the GeoCoL graph's
// components before any partitioning work starts, so a bad
// combination (RCB without GEOMETRY, tuning knobs on an untunable
// method, nonsensical option values) fails with a descriptive error
// at the call site instead of a panic deep in the library.
type Spec struct {
	// Method names the partitioner (registry name).
	Method Method

	// CoarsenTo stops multilevel coarsening once a level has at most
	// this many vertices (0 = default 100).
	CoarsenTo int
	// ParallelThreshold is the minimum global vertex count for the
	// distributed multilevel coarsening path (0 = default 2048;
	// negative forces the serial gather-everything path at any size).
	ParallelThreshold int
	// Seed salts randomized tie-breaking: MULTILEVEL's distributed
	// matching and STREAM's placement (0 = method default).
	Seed uint64
	// Imbalance is the balance tolerance of the multilevel k-way
	// refinement, serial and distributed (fractional; 0 = default 0.07,
	// must stay below 0.5).
	Imbalance float64

	// Restreams is STREAM's count of additional buffered re-placement
	// passes (0 = single pass; at most 16).
	Restreams int
	// BalanceSlack is STREAM's part-capacity slack fraction: no part
	// exceeds (1+BalanceSlack) x the ideal load (0 = default 0.05,
	// must stay below 0.5).
	BalanceSlack float64
}

// tuned reports whether any multilevel tuning knob departs from its
// zero (method-default) value. Seed is handled separately because
// STREAM accepts it too.
func (sp Spec) tuned() bool {
	return sp.CoarsenTo != 0 || sp.ParallelThreshold != 0 || sp.Imbalance != 0
}

// streamTuned reports whether any STREAM tuning knob departs from its
// zero (method-default) value.
func (sp Spec) streamTuned() bool {
	return sp.Restreams != 0 || sp.BalanceSlack != 0
}

// String renders the spec in the form ParseSpec accepts: the bare
// method name when every option is default, otherwise
// "METHOD(key=value,...)" with only the non-default options listed.
func (sp Spec) String() string {
	var opts []string
	if sp.CoarsenTo != 0 {
		opts = append(opts, fmt.Sprintf("CoarsenTo=%d", sp.CoarsenTo))
	}
	if sp.ParallelThreshold != 0 {
		opts = append(opts, fmt.Sprintf("ParallelThreshold=%d", sp.ParallelThreshold))
	}
	if sp.Seed != 0 {
		opts = append(opts, fmt.Sprintf("Seed=%d", sp.Seed))
	}
	if sp.Imbalance != 0 {
		opts = append(opts, fmt.Sprintf("Imbalance=%g", sp.Imbalance))
	}
	if sp.Restreams != 0 {
		opts = append(opts, fmt.Sprintf("Restreams=%d", sp.Restreams))
	}
	if sp.BalanceSlack != 0 {
		opts = append(opts, fmt.Sprintf("BalanceSlack=%g", sp.BalanceSlack))
	}
	if len(opts) == 0 {
		return string(sp.Method)
	}
	sort.Strings(opts)
	return fmt.Sprintf("%s(%s)", sp.Method, strings.Join(opts, ","))
}

// ParseSpec parses the Fortran-D-style string form of a spec: a bare
// registry name ("MULTILEVEL", "RCB", ...) or a name followed by a
// parenthesized, comma-separated option list ("MULTILEVEL(CoarsenTo=
// 200,Seed=7)"). Option keys are matched case-insensitively
// against the Spec fields. The method name itself is not checked
// against the registry here — registration may legitimately happen
// later — so an unknown method surfaces at Resolve time with the
// registry's unknown-partitioner error.
//
// This is the entry of the Fortran-D front end and of callers holding
// user-authored spec strings; Go code that knows its method writes a
// typed Spec literal (Spec{Method: MethodRCB}) instead.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, fmt.Errorf("partition: empty partitioner spec")
	}
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return Spec{Method: Method(s)}, nil
	}
	if !strings.HasSuffix(s, ")") {
		return Spec{}, fmt.Errorf("partition: malformed spec %q: missing closing parenthesis", s)
	}
	sp := Spec{Method: Method(strings.TrimSpace(s[:open]))}
	if sp.Method == "" {
		return Spec{}, fmt.Errorf("partition: malformed spec %q: missing method name", s)
	}
	body := s[open+1 : len(s)-1]
	if strings.TrimSpace(body) == "" {
		return sp, nil
	}
	for _, kv := range strings.Split(body, ",") {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return Spec{}, fmt.Errorf("partition: malformed spec option %q: want key=value", strings.TrimSpace(kv))
		}
		key := strings.ToLower(strings.TrimSpace(kv[:eq]))
		val := strings.TrimSpace(kv[eq+1:])
		var err error
		switch key {
		case "coarsento":
			sp.CoarsenTo, err = strconv.Atoi(val)
		case "parallelthreshold":
			sp.ParallelThreshold, err = strconv.Atoi(val)
		case "seed":
			sp.Seed, err = strconv.ParseUint(val, 10, 64)
		case "imbalance":
			sp.Imbalance, err = strconv.ParseFloat(val, 64)
		case "restreams":
			sp.Restreams, err = strconv.Atoi(val)
		case "balanceslack":
			sp.BalanceSlack, err = strconv.ParseFloat(val, 64)
		default:
			return Spec{}, fmt.Errorf("partition: unknown spec option %q (have CoarsenTo, ParallelThreshold, Seed, Imbalance, Restreams, BalanceSlack)", strings.TrimSpace(kv[:eq]))
		}
		if err != nil {
			return Spec{}, fmt.Errorf("partition: bad value for spec option %s: %v", key, err)
		}
	}
	return sp, nil
}

// ErrSpecValue is wrapped by every Resolve error that rejects an
// option's value (as opposed to its method or its presence).
var ErrSpecValue = errors.New("partition: bad spec option value")

// tolerance reports whether x is a valid fractional tolerance: 0 (the
// method default) or inside (0, 0.5). NaN is neither, and since
// comparisons with NaN are false, the check is written so NaN fails it.
func tolerance(x float64) bool {
	return x == 0 || (x > 0 && x < 0.5)
}

// Resolve looks the spec's method up in the registry and applies the
// tuning options, returning the ready-to-run Partitioner. Option
// values are range-checked here, and tuning knobs on a method that
// does not take them (multilevel knobs off MULTILEVEL, streaming knobs
// off STREAM) are rejected rather than silently dropped.
func (sp Spec) Resolve() (Partitioner, error) {
	if sp.Method == "" {
		return nil, fmt.Errorf("partition: spec has no method (have %v)", Names())
	}
	p, err := Lookup(string(sp.Method))
	if err != nil {
		return nil, err
	}
	if !tolerance(sp.Imbalance) {
		return nil, fmt.Errorf("%w: spec %s: Imbalance %g out of range (0, 0.5)", ErrSpecValue, sp.Method, sp.Imbalance)
	}
	if sp.CoarsenTo < 0 {
		return nil, fmt.Errorf("%w: spec %s: CoarsenTo %d is negative", ErrSpecValue, sp.Method, sp.CoarsenTo)
	}
	ml, isML := p.(Multilevel)
	if sp.tuned() && !isML {
		return nil, fmt.Errorf("partition: method %s does not accept multilevel tuning options (CoarsenTo/ParallelThreshold/Imbalance); they apply to %s only", sp.Method, MethodMultilevel)
	}
	st, isStream := p.(Streaming)
	if sp.streamTuned() && !isStream {
		return nil, fmt.Errorf("partition: method %s does not accept streaming tuning options (Restreams/BalanceSlack); they apply to %s only", sp.Method, MethodStream)
	}
	if isStream {
		if sp.Restreams < 0 || sp.Restreams > 16 {
			return nil, fmt.Errorf("%w: spec %s: Restreams %d out of range [0, 16]", ErrSpecValue, sp.Method, sp.Restreams)
		}
		if !tolerance(sp.BalanceSlack) {
			return nil, fmt.Errorf("%w: spec %s: BalanceSlack %g out of range (0, 0.5)", ErrSpecValue, sp.Method, sp.BalanceSlack)
		}
		st.Restreams = sp.Restreams
		st.Slack = sp.BalanceSlack
		st.Seed = sp.Seed
		return st, nil
	}
	if isML {
		if sp.CoarsenTo != 0 {
			ml.CoarsenTo = sp.CoarsenTo
		}
		if sp.ParallelThreshold != 0 {
			ml.ParallelThreshold = sp.ParallelThreshold
		}
		if sp.Seed != 0 {
			ml.Seed = sp.Seed
		}
		if sp.Imbalance != 0 {
			ml.Imbalance = sp.Imbalance
		}
		return ml, nil
	}
	if sp.Seed != 0 {
		return nil, fmt.Errorf("partition: method %s does not accept a Seed; it applies to %s and %s", sp.Method, MethodMultilevel, MethodStream)
	}
	return p, nil
}

// ValidateFor resolves the spec and validates it against the
// components g actually carries and the part count, using the
// capability metadata of the resolved partitioner. It returns the
// resolved partitioner so callers validate and run in one step.
func (sp Spec) ValidateFor(g *geocol.Graph, nparts int) (Partitioner, error) {
	p, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	if nparts < 1 {
		return nil, fmt.Errorf("partition: spec %s: nparts %d, want >= 1", sp.Method, nparts)
	}
	caps := p.Capabilities()
	if caps.NeedsLink && !g.HasLink {
		return nil, fmt.Errorf("partition: %s requires LINK connectivity, but the GeoCoL graph was constructed without it — CONSTRUCT with edge endpoint arrays (GeoColInput.Link1/Link2)", sp.Method)
	}
	if caps.NeedsGeometry && !g.HasGeom {
		return nil, fmt.Errorf("partition: %s requires GEOMETRY coordinates, but the GeoCoL graph was constructed without them — CONSTRUCT with coordinate arrays (GeoColInput.Geometry)", sp.Method)
	}
	return p, nil
}
