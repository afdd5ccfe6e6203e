package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up from scratch (fresh
// machine, session or server each time) unless the workload says
// otherwise. setup_s is the fastest of them; the last instance is kept
// for the timed phase.
const setupRepeats = 7

// params is what one run is asked to do.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool   // tiny inputs and a 10-sample floor, for go test
	tmpDir  string // where partition_cold writes its edge-stream file
}

// setupInfo describes one set-up instance.
type setupInfo struct {
	wallS    float64 // host wall time of the set-up
	virtualS float64 // simulated seconds the set-up charged
	heapMB   float64 // live heap after a forced GC (kept instance only)
}

// workload is one of the four benchmark workloads. run performs one
// fresh set-up; with a nil recorder it tears the instance down again,
// otherwise it keeps it and runs the warm-up, the timed phase, the
// oracles and (with a tracer) the layer probes against it.
type workload struct {
	name  string
	why   string
	kinds []string
	// roundsPerSecond is the calibrated sandbox rate, in rounds of one
	// op per kind: rounds = roundsPerSecond × seconds. Op counts come from
	// this schedule, never from a timer, so every count repeats.
	roundsPerSecond float64
	// setups overrides setupRepeats: a set-up of well under 0.1 s is
	// cheap to repeat more often, and its floor needs it.
	setups int
	run    func(p params, tr *tracer, rec *recorder) (setupInfo, error)
}

// rounds is the scheduled length of the timed phase. Full runs never
// go under minFloorSamples ops per kind.
func (w workload) rounds(p params) int {
	return max(int(math.Round(w.roundsPerSecond*p.seconds)), p.minSamples())
}

const quickFloorSamples = 6

// minSamples is the fewest ops of a kind a run may time.
func (p params) minSamples() int {
	if p.quick {
		return quickFloorSamples
	}
	return minFloorSamples
}

// recorder collects what the timed phase of one run produces. SPMD
// workloads record on rank 0; service_mix gives each client goroutine
// its own recorder and merges them.
type recorder struct {
	kinds      []string
	minSamples int
	tr         *tracer
	layers     map[string]float64 // per-layer metrics from probes and counters

	wallMS     [][]float64 // per kind: op wall times, untraced ops
	tracedMS   [][]float64 // per kind: op wall times, traced ops
	virtualS   []float64   // per kind: simulated seconds charged
	kindAllocs []float64   // per kind: mallocs of one untimed op
	cutSum     []float64   // per kind: sum of recounted cuts
	cutN       []int       // per kind: partitions produced
	maxImb     float64

	attempted int
	failed    int
	firstFail string

	budget   float64   // nominal seconds of the timed phase
	deadline time.Time // safety stop, see expired
	cutShort bool      // the safety stop fired
	began    time.Time
	wallS    float64
	cpuS     float64
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	cpu0     float64
}

func newRecorder(w workload, p params, tr *tracer) *recorder {
	r := &recorder{kinds: w.kinds, minSamples: p.minSamples(), tr: tr, budget: p.seconds, layers: map[string]float64{}}
	if tr != nil {
		r.minSamples /= 2 // every other round is traced; each floor sees half the ops
	}
	if p.quick {
		r.budget = 3600 // tiny inputs follow no calibrated schedule: no safety stop
	}
	r.initKinds()
	return r
}

// initKinds allocates the per-kind tallies.
func (r *recorder) initKinds() {
	n := len(r.kinds)
	r.wallMS, r.tracedMS = make([][]float64, n), make([][]float64, n)
	r.virtualS, r.kindAllocs = make([]float64, n), make([]float64, n)
	r.cutSum, r.cutN = make([]float64, n), make([]int, n)
}

// child returns an empty recorder sharing r's configuration, for one
// client goroutine; absorb folds it back in.
func (r *recorder) child() *recorder {
	c := &recorder{kinds: r.kinds, minSamples: r.minSamples, tr: r.tr, deadline: r.deadline}
	c.initKinds()
	return c
}

func (r *recorder) absorb(c *recorder) {
	for k := range r.kinds {
		r.wallMS[k] = append(r.wallMS[k], c.wallMS[k]...)
		r.tracedMS[k] = append(r.tracedMS[k], c.tracedMS[k]...)
		r.virtualS[k] += c.virtualS[k]
		r.cutSum[k] += c.cutSum[k]
		r.cutN[k] += c.cutN[k]
	}
	if c.maxImb > r.maxImb {
		r.maxImb = c.maxImb
	}
	r.attempted += c.attempted
	r.failed += c.failed
	if r.firstFail == "" {
		r.firstFail = c.firstFail
	}
}

// tracedRound says whether the ops of round i record spans: every
// other round of a traced run, so traced and untraced floors come from
// the same seconds of host weather.
func (r *recorder) tracedRound(i int) bool { return r.tr != nil && i%2 == 1 }

// op records one timed operation of kind k.
func (r *recorder) op(k int, wall time.Duration, virtual float64, traced bool) {
	ms := float64(wall.Nanoseconds()) / 1e6
	if traced {
		r.tracedMS[k] = append(r.tracedMS[k], ms)
	} else {
		r.wallMS[k] = append(r.wallMS[k], ms)
	}
	r.virtualS[k] += virtual
	r.attempted++
}

// judgePartition puts a partition an op of kind k produced through the
// oracle: a valid one adds its recounted cut and imbalance to the
// run's figures, an invalid one counts the op as failed.
func (r *recorder) judgePartition(k int, e1, e2, part []int, n, nparts int, tol float64, reported int) error {
	cut, imbalance, err := checkPartition(e1, e2, part, n, nparts, tol, reported)
	if err != nil {
		r.fail(err)
		return err
	}
	r.cutSum[k] += float64(cut)
	r.cutN[k]++
	if imbalance > r.maxImb {
		r.maxImb = imbalance
	}
	return nil
}

// judgeEuler puts the final y of an Euler run through the oracle. One
// verdict covers every step — a wrong step anywhere leaves y wrong at
// the end — so a failure fails every op of the run.
func (r *recorder) judgeEuler(y, sweep []float64, steps int) {
	if err := checkEuler(y, sweep, steps); err != nil {
		r.failed = r.attempted
		r.firstFail = err.Error()
	}
}

// fail counts one operation that errored or failed its oracle.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstFail == "" {
		r.firstFail = err.Error()
	}
}

// startTimed opens the timed phase. The deadline is a safety stop for
// a host far slower than the one the schedule was sized on: a run
// whose timed phase passes 1.5× its nominal length stops at the next
// round boundary, keeping the kind mix (and so every per-op figure)
// intact and only shortening the sample.
func (r *recorder) startTimed() {
	runtime.ReadMemStats(&r.mem0)
	r.cpu0 = cpuSeconds()
	r.began = time.Now()
	r.deadline = r.began.Add(time.Duration(1.5 * r.budget * float64(time.Second)))
}

// pastDeadline reports that the timed phase has overrun; it only reads,
// so service_mix's client goroutines may both call it.
func (r *recorder) pastDeadline() bool { return time.Now().After(r.deadline) }

// expired is pastDeadline that also remembers the overrun.
func (r *recorder) expired() bool {
	r.cutShort = r.cutShort || r.pastDeadline()
	return r.cutShort
}

func (r *recorder) stopTimed() {
	r.wallS = time.Since(r.began).Seconds()
	r.cpuS = cpuSeconds() - r.cpu0
	runtime.ReadMemStats(&r.mem1)
}

// liveHeapMB forces a collection and returns what stays reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// mallocsOf runs f and returns the heap objects allocated meanwhile,
// process-wide: callers make sure nothing else is running.
func mallocsOf(f func()) float64 {
	n, _ := allocOf(f)
	return n
}

// allocOf is mallocsOf that also returns the megabytes allocated.
func allocOf(f func()) (mallocs, mb float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc-a.TotalAlloc) / 1e6
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// need is the sample count a floor must have. A run the safety stop
// cut short reports what it has (down to the quick minimum) rather
// than nothing; main says so on standard error.
func (r *recorder) need() int {
	if r.cutShort {
		return quickFloorSamples / 2
	}
	return r.minSamples
}

// kindFloors returns the per-kind floor of the untraced ops and each
// kind's share of them.
func (r *recorder) kindFloors() (floors, shares []float64, err error) {
	total := 0
	for k := range r.kinds {
		total += len(r.wallMS[k])
	}
	floors = make([]float64, len(r.kinds))
	shares = make([]float64, len(r.kinds))
	for k, name := range r.kinds {
		if floors[k], err = floorMean(r.wallMS[k], r.need()); err != nil {
			return nil, nil, fmt.Errorf("kind %s: %w", name, err)
		}
		shares[k] = float64(len(r.wallMS[k])) / float64(total)
	}
	return floors, shares, nil
}

// endToEnd assembles the end-to-end metrics of a finished run.
func (r *recorder) endToEnd(setups []setupInfo) (map[string]float64, error) {
	floors, shares, err := r.kindFloors()
	if err != nil {
		return nil, err
	}
	floor, err := weightedGeoMean(floors, shares)
	if err != nil {
		return nil, err
	}
	kept := setups[len(setups)-1]
	fastest := kept.wallS
	for _, s := range setups {
		if s.wallS < fastest {
			fastest = s.wallS
		}
	}
	ops := float64(r.attempted)
	var virtual, cutSum float64
	cutN := 0
	for k := range r.kinds {
		virtual += r.virtualS[k]
		cutSum += r.cutSum[k]
		cutN += r.cutN[k]
	}
	if cutN == 0 {
		return nil, fmt.Errorf("no partition was recounted")
	}
	return map[string]float64{
		"setup_s":          fastest,
		"op_ms_floor":      floor,
		"virtual_s_per_op": virtual / ops,
		"virtual_setup_s":  kept.virtualS,
		"alloc_mb_per_op":  float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / 1e6 / ops,
		"allocs_per_op":    float64(r.mem1.Mallocs-r.mem0.Mallocs) / ops,
		"setup_heap_mb":    kept.heapMB,
		"edge_cut":         cutSum / float64(cutN),
		"imbalance":        r.maxImb,
	}, nil
}

// perLayer assembles the per-layer metrics of a traced run: the
// probes' and counters' entries in r.layers plus the per-kind
// decomposition, the typical-time diagnostics and the tracing cost.
func (r *recorder) perLayer() (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range r.layers {
		out[k] = v
	}
	floors, shares, err := r.kindFloors()
	if err != nil {
		return nil, err
	}
	var all, tracedFloors []float64
	for k, name := range r.kinds {
		n := float64(len(r.wallMS[k]) + len(r.tracedMS[k]))
		out["kind."+name+".op_ms_floor"] = floors[k]
		out["kind."+name+".virtual_s"] = r.virtualS[k] / n
		out["kind."+name+".allocs"] = r.kindAllocs[k]
		if r.cutN[k] > 0 {
			out["kind."+name+".cut"] = r.cutSum[k] / float64(r.cutN[k])
		}
		all = append(all, r.wallMS[k]...)
		tf, err := floorMean(r.tracedMS[k], r.need())
		if err != nil {
			return nil, fmt.Errorf("kind %s, traced ops: %w", name, err)
		}
		tracedFloors = append(tracedFloors, tf)
	}
	untraced, err := weightedGeoMean(floors, shares)
	if err != nil {
		return nil, err
	}
	traced, err := weightedGeoMean(tracedFloors, shares)
	if err != nil {
		return nil, err
	}
	out["trace.overhead_pct"] = 100 * (traced/untraced - 1)
	out["wall.op_ms_p50"] = percentile(all, 50)
	out["wall.op_ms_p90"] = percentile(all, 90)
	out["wall.ops_per_s"] = float64(r.attempted) / r.wallS
	out["wall.cpu_ms_per_op"] = 1e3 * r.cpuS / float64(r.attempted)
	return out, nil
}

// spinIters is the fixed work of the host probe: about 20 ms of
// register-only arithmetic on the 2.1 GHz sandbox.
const spinIters = 10_500_000

var spinSink uint64

// spinProbe times the fixed register loop n times and returns the
// samples in milliseconds. It touches no memory and makes no call, so
// whatever varies between samples is the host, not the program.
func spinProbe(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		x := uint64(i) + 0x9e3779b97f4a7c15
		for j := 0; j < spinIters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		out[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return out
}

// hostMetrics summarises the spin probes taken before and after a
// workload: how disturbed the host was while it ran.
func hostMetrics(spins []float64) map[string]float64 {
	p50 := percentile(spins, 50)
	spread := 0.0
	if p50 > 0 {
		spread = (percentile(spins, 90) - percentile(spins, 10)) / p50
	}
	return map[string]float64{
		"host.nproc":          float64(runtime.NumCPU()),
		"host.gomaxprocs":     float64(runtime.GOMAXPROCS(0)),
		"host.spin_ms_p50":    p50,
		"host.spin_ms_spread": spread,
	}
}
