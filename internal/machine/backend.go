package machine

import (
	"context"
	"fmt"
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
	// Real is the real-cores mode: ranks execute concurrently on the
	// host cores (the Go scheduler runs at most GOMAXPROCS at once),
	// payloads are physically copied into receiver memory on
	// delivery, and the authoritative timing is per-rank wall time
	// (Stats.Elapsed). The virtual clock is still charged so both
	// trajectories come out of one run.
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
		elapsed: make([]time.Duration, cfg.Procs),
		clocks:  make([]float64, cfg.Procs),
	}
	m.rdv = newRendezvous(cfg.Procs)
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
				if p := recover(); p != nil {
					if _, ok := p.(abortSignal); ok {
						return // secondary unwind; original error already recorded
					}
					m.abort(fmt.Errorf("machine: rank %d panicked: %v", rank, p))
				}
			}()
			c.checkAborted()
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
