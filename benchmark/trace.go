package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the public call (spans inside the program are a
// later change). Op and Kind tie the spans of one operation together;
// Parent is the span that caused this one (0 = root).
type span struct {
	ID           int     `json:"id"`
	Parent       int     `json:"parent"`
	Workload     string  `json:"workload"`
	Op           int     `json:"op"`
	Kind         string  `json:"kind"`
	Name         string  `json:"name"`
	StartNS      int64   `json:"start_ns"`
	EndNS        int64   `json:"end_ns"`
	VirtualStart float64 `json:"virtual_start"`
	VirtualEnd   float64 `json:"virtual_end"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the tracing-off state: every method is a no-op, so the untraced run
// pays one nil check per boundary. SPMD bodies record on rank 0 only;
// the mutex is for service_mix's two client goroutines.
type tracer struct {
	workload string

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload} }

// epoch is the zero of every span and of the SPMD completion times.
var epoch = time.Now()

// nowNS is the monotonic time since epoch.
func nowNS() int64 { return time.Since(epoch).Nanoseconds() }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent, op int, kind, name string, virtual float64) int {
	if t == nil {
		return 0
	}
	now := nowNS()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Op: op,
		Kind: kind, Name: name, StartNS: now, VirtualStart: virtual})
	t.mu.Unlock()
	return id
}

// end closes span id at the given virtual clock.
func (t *tracer) end(id int, virtual float64) {
	if t == nil || id == 0 {
		return
	}
	now := nowNS()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].VirtualEnd = virtual
	t.mu.Unlock()
}

// add records a finished span whose ends were measured elsewhere (the
// global completion times of an SPMD call) and returns its id.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	s.ID, s.Workload = len(t.spans)+1, t.workload
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// adopt makes span parent the parent of span child: an SPMD op's span
// can only be added once its end is known, after its children.
func (t *tracer) adopt(child, parent int) {
	if t == nil || child == 0 {
		return
	}
	t.mu.Lock()
	t.spans[child-1].Parent = parent
	t.mu.Unlock()
}

// named returns the spans called name, in recording order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// probePrefix marks the spans of layer probes, which time a call
// alone and globally, apart from the spans of the same call inside ops.
const probePrefix = "probe:"

// probeMS and probeVirtualS are fastestMS and virtualS of a probe.
func (t *tracer) probeMS(name string) float64       { return t.fastestMS(probePrefix + name) }
func (t *tracer) probeVirtualS(name string) float64 { return t.virtualS(probePrefix + name) }

// fastestMS is the layer estimator: the shortest span called name, in
// milliseconds (0 when none was recorded). Probes repeat a call a
// handful of times, too few for a fastest-tenth mean.
func (t *tracer) fastestMS(name string) float64 {
	best := 0.0
	for i, s := range t.named(name) {
		if d := s.ms(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// virtualS is the simulated time the first span called name charged.
func (t *tracer) virtualS(name string) float64 {
	if ss := t.named(name); len(ss) > 0 {
		return ss[0].VirtualEnd - ss[0].VirtualStart
	}
	return 0
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
