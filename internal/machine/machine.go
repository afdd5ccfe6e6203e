// Package machine simulates a distributed-memory multicomputer inside a
// single Go process.
//
// Each simulated processor ("rank") runs the same SPMD body function in
// its own goroutine and owns a private virtual clock. Communication is
// explicit and collective: deterministic Barrier, AllReduce, AllGather
// (and the root-only Gather*), BroadcastInts, the uncharged ShareInts
// and irregular all-to-alls (AlltoAllInts, Exchange*), all built on one
// blocking rendezvous. The virtual clock is charged using a LogP-style
// cost model (per-message send/recv overhead, per-hop latency over the
// hypercube diameter, per-byte transfer time) plus per-flop and
// per-word compute charges, so experiments report machine-like
// "seconds" that are fully deterministic and independent of host
// scheduling.
//
// The default cost model is calibrated to the Intel iPSC/860 hypercube
// used in the paper this repository reproduces (Ponnusamy, Saltz,
// Choudhary; Supercomputing '93).
//
// The ranks run concurrently on the host cores, as many at once as the
// Go scheduler runs (GOMAXPROCS). Every run also measures each rank's
// host wall time and max-reduces it (Stats.Elapsed, next to the
// virtual makespan), and runs are context-cancellable (RunStats).
// Communication goes through one deterministic rendezvous, so a body
// computes identical results, and charges identical virtual time,
// across repeated runs.
package machine

import (
	"context"
	"math/bits"
	"sync"
	"time"
)

// Config describes the simulated machine: its size and cost model.
// All times are in seconds.
type Config struct {
	// Procs is the number of simulated processors. Must be >= 1.
	Procs int

	// SendOverhead is the sender CPU time consumed per message.
	SendOverhead float64
	// RecvOverhead is the receiver CPU time consumed per message.
	RecvOverhead float64
	// HopLatency is the network latency per hop. An all-to-all
	// charges every message the diameter of a binary hypercube (the
	// iPSC/860 interconnect), ceil(log2 Procs) hops, as a conservative
	// per-message distance.
	HopLatency float64
	// ByteTime is the transfer time per byte (inverse bandwidth).
	ByteTime float64

	// FlopTime is the time per floating-point operation charged by
	// Ctx.Flops.
	FlopTime float64
	// WordTime is the time per word of runtime-preprocessing memory
	// traffic charged by Ctx.Words (hashing, index translation,
	// buffer copying and similar inspector work).
	WordTime float64

	// Seed has no effect: the machine draws no random numbers (each
	// partitioner takes a seed of its own). It is kept for the callers
	// that still set it, the repository benchmark's service_mix
	// workload among them.
	Seed uint64
}

// IPSC860 returns a cost model calibrated to the Intel iPSC/860
// hypercube: roughly 75 microseconds end-to-end message latency, about
// 2.8 MB/s realized point-to-point bandwidth, and an i860 sustaining a
// few Mflop/s on irregular, gather/scatter-heavy inner loops.
func IPSC860(procs int) Config {
	return Config{
		Procs:        procs,
		SendOverhead: 40e-6,
		RecvOverhead: 30e-6,
		HopLatency:   5e-6,
		ByteTime:     1.0 / 2.8e6,
		FlopTime:     1.0 / 3.5e6,
		WordTime:     1.0 / 9e6,
	}
}

// Zero returns a config with the given processor count and a cost model
// in which all charges are zero. Useful for pure-correctness tests.
func Zero(procs int) Config {
	return Config{Procs: procs}
}

// logceil returns ceil(log2(p)) with logceil(1) == 0.
func logceil(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// Machine is one simulated multicomputer instance. It is created by Run
// and lives only for the duration of the SPMD body.
type Machine struct {
	cfg Config
	rdv *rendezvous

	// elapsed and clocks collect each rank's wall time and final
	// virtual clock; each rank writes only its own index.
	elapsed []time.Duration
	clocks  []float64

	abortMu  sync.Mutex
	aborted  bool
	abortErr error
}

// abort records the first fatal error and wakes every blocked rank.
func (m *Machine) abort(err error) {
	m.abortMu.Lock()
	if !m.aborted {
		m.aborted = true
		m.abortErr = err
	}
	m.abortMu.Unlock()
	m.rdv.wake()
}

func (m *Machine) abortedErr() (bool, error) {
	m.abortMu.Lock()
	defer m.abortMu.Unlock()
	return m.aborted, m.abortErr
}

// abortSignal is panicked by blocked ranks when another rank has failed;
// Run swallows it so only the original error is reported.
type abortSignal struct{}

// Ctx is the per-rank handle passed to the SPMD body. All methods must
// be called only from the goroutine that owns the rank.
type Ctx struct {
	rank  int
	procs int
	m     *Machine
	clock float64

	// intRows and floatRows are where this rank keeps the all-to-all
	// headers it deposits: the rendezvous is handed a pointer to a slot,
	// which costs no allocation where boxing the header would. A slot is
	// sent payload like the rows it names, hence two per element type,
	// used alternately (turn; see exchangeRows). intRow and floatRow are
	// the same for the slice a rank deposits in a gather (gatherRows).
	intRows   [2][][]int
	floatRows [2][][]float64
	intRow    [2][]int
	floatRow  [2][]float64
	turn      int
}

// Rank returns this processor's rank in [0, Procs).
func (c *Ctx) Rank() int { return c.rank }

// Procs returns the number of processors in the machine.
func (c *Ctx) Procs() int { return c.procs }

// Clock returns this rank's current virtual time in seconds.
func (c *Ctx) Clock() float64 { return c.clock }

// AdvanceClock adds dt seconds of local work to the virtual clock.
//
//chaosvet:ignore testonly core's TestInspectorMatchesReference levels each rank's clock with the reference run's through it (inspTrace.sync)
func (c *Ctx) AdvanceClock(dt float64) {
	if dt > 0 {
		c.clock += dt
	}
}

// Flops charges n floating-point operations to the virtual clock.
func (c *Ctx) Flops(n int) {
	if n > 0 {
		c.clock += float64(n) * c.m.cfg.FlopTime
	}
}

// Words charges n words of runtime-preprocessing memory traffic
// (hash-table probes, index translation, buffer copies) to the clock.
func (c *Ctx) Words(n int) {
	if n > 0 {
		c.clock += float64(n) * c.m.cfg.WordTime
	}
}

// checkAborted panics with abortSignal if another rank has failed,
// unwinding this rank so Run can return the original error.
func (c *Ctx) checkAborted() {
	if ab, _ := c.m.abortedErr(); ab {
		panic(abortSignal{})
	}
}

// Run executes body on cfg.Procs processors and blocks until every rank
// returns. If any rank panics, Run unblocks the remaining ranks and
// returns an error describing the first panic.
func Run(cfg Config, body func(*Ctx)) error {
	_, err := RunStats(context.Background(), cfg, body)
	return err
}
