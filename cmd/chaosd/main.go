// Command chaosd is the partitioning daemon: a long-lived server that
// answers partition requests over a small length-prefixed wire
// protocol, amortizing partitioning work across every client that
// connects. Finished partitions and the retained MULTILEVEL
// coarsening ladders live in a content-addressed cache keyed by
// (graph fingerprint, spec value, nparts, procs), so one client's
// cold run serves another's identical request from memory and
// warm-starts churned descendants of the same graph (the CHAOS
// schedule-reuse economy, lifted from one program's iterations to a
// fleet of programs).
//
// Usage:
//
//	chaosd [-listen 127.0.0.1:7850] [-workers N] [-queue N] [-cache-mb N]
//
// Admission is bounded: at most -workers computes run concurrently
// over a -queue-deep FIFO; requests beyond that are rejected with a
// typed retryable error rather than queued without bound. Identical
// in-flight requests are batched server-side (singleflight).
//
// The daemon serves until SIGINT/SIGTERM, then drains: in-flight
// computes are cancelled, every waiting client unwinds with a typed
// error, connections still open after a short drain are closed (a
// client that stopped reading cannot hold the daemon up), and the
// process exits cleanly. The repository benchmark's
// service_mix workload (go run ./benchmark -workload service_mix) is
// the matching client fleet.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"chaos/internal/service"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7850", "TCP address to serve on")
		workers = flag.Int("workers", 0, "compute pool width (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
		cacheMB = flag.Int64("cache-mb", 256, "cache memory cap in MiB (0 = default, <0 = unbounded)")
	)
	flag.Parse()

	cacheBytes := *cacheMB << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}
	s := service.New(service.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheBytes: cacheBytes,
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("chaosd: serving on %s\n", l.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	select {
	case sig := <-sigc:
		fmt.Printf("chaosd: %v, draining\n", sig)
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaosd: serve: %v\n", err)
			s.Close()
			os.Exit(1)
		}
	}
	s.Close()
	m := s.Metrics()
	fmt.Printf("chaosd: served hits=%d cold=%d warm=%d shared=%d rejected=%d\n",
		m.Hits, m.Cold, m.Warm, m.Shared, m.Rejected)
}
