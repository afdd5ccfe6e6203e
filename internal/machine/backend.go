package machine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Backend selects how a machine executes its ranks.
type Backend int

const (
	// Simulated is the classic mode: goroutine-per-rank with every
	// charge going to the virtual clock. Host wall time is incidental;
	// the virtual clock is the authoritative timing.
	Simulated Backend = iota
	// Real is the real-cores mode: ranks execute on a worker pool
	// capped at GOMAXPROCS compute slots, payloads are physically
	// copied into receiver memory on delivery, and the authoritative
	// timing is per-rank wall time (Stats.Elapsed). The virtual clock
	// is still charged so both trajectories come out of one run.
	Real
)

func (b Backend) String() string {
	switch b {
	case Simulated:
		return "simulated"
	case Real:
		return "real"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Stats reports both timing trajectories of one run: the simulated
// makespan (maximum final virtual clock across ranks) and the real
// makespan (maximum per-rank wall time). On the simulated backend
// MaxClock is authoritative and Elapsed merely records what the host
// happened to spend; on the real backend it is the reverse.
type Stats struct {
	// MaxClock is the maximum final virtual clock across ranks, in
	// simulated seconds.
	MaxClock float64
	// Elapsed is the maximum per-rank wall time: each rank's wall
	// clock runs from its goroutine starting the body to the body
	// returning (or unwinding), and the per-rank times are
	// max-reduced. Time spent blocked in collectives counts — a rank
	// waiting on a straggler is occupied, exactly as on real hardware.
	Elapsed time.Duration
}

// RunStats executes body like Run under the backend selected by
// cfg.Backend and returns both timing trajectories. The context
// cancels the run: cancellation aborts the machine exactly like a rank
// panic, unwinding every rank at its next machine call (blocked ranks
// are woken mid-collective), and the returned error wraps ctx.Err().
// A nil ctx means context.Background().
func RunStats(ctx context.Context, cfg Config, body func(*Ctx)) (Stats, error) {
	if cfg.Procs < 1 {
		return Stats{}, fmt.Errorf("machine: invalid processor count %d", cfg.Procs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := &Machine{
		cfg:     cfg,
		real:    cfg.Backend == Real,
		abortCh: make(chan struct{}),
		elapsed: make([]time.Duration, cfg.Procs),
		clocks:  make([]float64, cfg.Procs),
	}
	m.rdv = newRendezvous(m, cfg.Procs)
	if m.real {
		m.slots = make(chan struct{}, workerSlots(cfg))
	}
	if err := ctx.Err(); err != nil {
		// Cancelled before launch: pre-abort so every rank unwinds at
		// its first machine call without doing work.
		m.abort(fmt.Errorf("machine: run cancelled: %w", err))
	}

	// The watcher translates context cancellation into a machine
	// abort; the done channel retires it when the run finishes first.
	done := make(chan struct{})
	if d := ctx.Done(); d != nil {
		go func() {
			select {
			case <-d:
				m.abort(fmt.Errorf("machine: run cancelled: %w", ctx.Err()))
			case <-done:
			}
		}()
	}

	var wg sync.WaitGroup
	wg.Add(cfg.Procs)
	for r := 0; r < cfg.Procs; r++ {
		go func(rank int) {
			c := &Ctx{rank: rank, procs: cfg.Procs, m: m}
			start := time.Now()
			defer wg.Done()
			defer func() {
				m.elapsed[rank] = time.Since(start)
				m.clocks[rank] = c.clock
				c.releaseSlot()
				if p := recover(); p != nil {
					if _, ok := p.(abortSignal); ok {
						return // secondary unwind; original error already recorded
					}
					m.abort(fmt.Errorf("machine: rank %d panicked: %v", rank, p))
				}
			}()
			c.checkAborted()
			c.acquireSlot()
			body(c)
		}(r)
	}
	wg.Wait()
	close(done)

	var st Stats
	for r := 0; r < cfg.Procs; r++ {
		if m.clocks[r] > st.MaxClock {
			st.MaxClock = m.clocks[r]
		}
		if m.elapsed[r] > st.Elapsed {
			st.Elapsed = m.elapsed[r]
		}
	}
	_, err := m.abortedErr()
	return st, err
}

// workerSlots resolves the compute-slot width of a real-backend run:
// cfg.Workers when positive, else min(GOMAXPROCS, Procs).
func workerSlots(cfg Config) int {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cfg.Procs {
		w = cfg.Procs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// acquireSlot claims a compute slot on the real backend, blocking
// while all slots are busy. Aborting the machine (rank panic or
// context cancellation) unwinds blocked acquirers, so a cancelled run
// never deadlocks on slot starvation. No-op on the simulated backend.
func (c *Ctx) acquireSlot() {
	if c.m.slots == nil || c.holdsSlot {
		return
	}
	select {
	case c.m.slots <- struct{}{}:
		c.holdsSlot = true
	case <-c.m.abortCh:
		panic(abortSignal{})
	}
}

// releaseSlot returns this rank's compute slot to the pool. No-op when
// the rank holds none (simulated backend, or already yielded).
func (c *Ctx) releaseSlot() {
	if c.m.slots == nil || !c.holdsSlot {
		return
	}
	<-c.m.slots
	c.holdsSlot = false
}

// yield runs the blocking operation f without occupying a compute
// slot, so that a rank waiting in a collective never starves runnable
// ranks of cores — the property that lets P ranks
// share min(GOMAXPROCS, P) slots without deadlock. The slot is
// re-claimed before control returns to rank code; if the machine
// aborted meanwhile, re-claiming unwinds instead (the rank is dying
// and needs no core).
func (c *Ctx) yield(f func()) {
	if c.m.slots == nil {
		f()
		return
	}
	c.releaseSlot()
	defer c.acquireSlot()
	f()
}
