// Command essat-serve exposes the simulator as an HTTP service:
// POST a JSON scenario spec to /run and get the run's metrics back.
// Runs execute on a bounded worker pool with per-request seeds and
// resource budgets; when the pool and its wait queue are full the
// server sheds load with 429 + Retry-After instead of queueing
// unboundedly, and SIGINT/SIGTERM drains in-flight runs before exit.
//
// Endpoints:
//
//	POST /run?deadline=2s&max_events=1000000   run a spec (query params
//	                                           tighten the server budget)
//	GET  /healthz                              liveness
//	GET  /readyz                               readiness + counters JSON;
//	                                           503 while draining
//
// Examples:
//
//	essat-serve -addr :8080 -workers 4 -deadline 30s
//	curl -d '{"protocol":"DTS-SS","workload":{"base_rate":1,"per_class":1}}' localhost:8080/run
//	essat-load -url http://localhost:8080 -n 200 -c 16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/essat/essat"
	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "requests waiting for a worker before shedding (0 = 2x workers)")
		deadline  = flag.Duration("deadline", 60*time.Second, "default wall-clock budget per run (0 = unlimited)")
		maxEvents = flag.Uint64("max-events", 0, "default event budget per run (0 = unlimited)")
		maxNodes  = flag.Int("max-nodes", 2000, "reject specs larger than this many nodes (0 = unlimited)")
		seed      = flag.Int64("seed", 1, "base seed for requests that omit one")
		audit     = flag.Bool("audit", false, "run the invariant auditor on every request")
		sinks     = flag.String("sinks", "", "comma-separated metric sinks attached to every run whose spec has no results block (timeseries, energy, jsonl); responses then carry records")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight runs")
		quiet     = flag.Bool("q", false, "suppress per-run logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "essat-serve: ", log.LstdFlags)
	var sinkNames []string
	if *sinks != "" {
		// Validate at startup: a typo must fail the boot, not every run.
		for _, name := range strings.Split(*sinks, ",") {
			name = strings.TrimSpace(name)
			if _, ok := essat.LookupMetricSink(name); !ok {
				fmt.Fprintf(os.Stderr, "essat-serve: unknown metric sink %q (registered: %v)\n", name, essat.MetricSinks())
				os.Exit(1)
			}
			sinkNames = append(sinkNames, name)
		}
	}
	cfg := serve.Config{
		Workers:  *workers,
		Queue:    *queue,
		Budget:   experiment.Budget{WallClock: *deadline, MaxEvents: *maxEvents},
		MaxNodes: *maxNodes,
		BaseSeed: *seed,
		Audit:    *audit,
		Sinks:    sinkNames,
		Log:      logger,
	}
	if *quiet {
		cfg.Log = nil
	}
	s := serve.New(cfg)

	// rootCtx backs every request context; canceling it is the hard
	// stop when the drain timeout expires with runs still in flight.
	rootCtx, hardStop := context.WithCancel(context.Background())
	defer hardStop()

	hs := &http.Server{
		Addr:        *addr,
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return rootCtx },
	}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigs
		logger.Printf("received %v; draining (up to %v)", sig, *drainFor)
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Printf("drain timeout: canceling in-flight runs (%v)", err)
			hardStop() // budgets/cancellation checks abort the runs
			_ = hs.Close()
			return
		}
		logger.Printf("drained cleanly")
	}()

	logger.Printf("listening on %s (%d workers, %d queue slots)", *addr, s.Workers(), s.QueueDepth())
	err := hs.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "essat-serve:", err)
		os.Exit(1)
	}
	<-done
}
