// Command mqoserve runs the long-running MQO optimisation service: an
// HTTP/JSON daemon that accepts problem batches, schedules them over a
// bounded fleet of annealing-solver workers with admission control, and
// streams incremental incumbents to clients while solves run.
//
// Usage:
//
//	mqoserve -addr :8080 -fleet 4 -queue 128
//	curl -s localhost:8080/v1/solve -d @instance.json
//	curl -sN 'localhost:8080/v1/solve?stream=1' -d @request.json
//
// Endpoints: POST /v1/solve (solve one instance; ?stream=1 switches to
// NDJSON incumbent streaming), GET /healthz (liveness + queue occupancy),
// GET /readyz (readiness — 503 while draining or replaying the journal),
// GET /statsz (metrics registry snapshot), GET /metricsz (Prometheus
// exposition). See docs/mqoserve.md for the full API, the streaming
// protocol and tuning guidance.
//
// Admission: the queue holds at most -queue requests; beyond that the
// server answers 503 with a Retry-After hint. Every request carries a
// deadline (default -deadline, capped by -max-deadline) propagated through
// queueing and solving; expired work is never performed. Requests queue in
// priority classes (high before normal before low, FIFO within a class;
// -priority sets the default) and deadline-expired queued requests are
// evicted eagerly. -shed-target arms adaptive overload control: while the
// p99 queue wait exceeds the target, low/normal-priority requests are shed
// with 503 + Retry-After.
//
// Crash safety: -journal-dir fsyncs every accepted request to an
// append-only journal before admission and tombstones it once answered; a
// restarted daemon replays the unanswered remainder (at-least-once) while
// /readyz reports 503. -watchdog-factor quarantines fleet slots whose
// solves ignore cancellation.
//
// Resilience: -retries, -solve-timeout, -breaker and -fallback wrap each
// fleet worker's devices in the same middleware stack mqosolve uses;
// breaker and retry state is kept per fleet slot.
//
// Caching: -cache-entries enables the fleet-wide cross-solve cache for
// recurring workloads — structurally identical problems skip recursive
// partitioning and rebind cached encoding skeletons; -warm-drift
// additionally seeds annealing from the cached incumbent when plan costs
// drifted within the bound. Hit/miss/eviction counters appear under
// cache.* in /statsz. Off by default: with caching on, repeated solves of
// the same structure are no longer bit-identical to a cold standalone run
// whenever warm starts engage.
//
// Determinism: a problem solved through mqoserve yields a bit-identical
// outcome to a standalone mqosolve run with the same seed and options,
// regardless of fleet size, queue depth or concurrent load.
//
// SIGINT/SIGTERM triggers a graceful drain: new work is rejected, running
// solves finish and deliver their responses, then the process exits.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof: registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"incranneal/internal/devices"
	"incranneal/internal/obs"
	"incranneal/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		fleet    = flag.Int("fleet", 2, "solver workers (maximum concurrent solves)")
		queue    = flag.Int("queue", 64, "admission queue depth; beyond it requests get 503 + Retry-After")
		device   = flag.String("device", "da", "default annealing device: "+strings.Join(devices.Names, ", ")+" (requests may override)")
		capacity = flag.Int("capacity", 0, "override device variable capacity (0 = device default)")
		runs     = flag.Int("runs", 16, "default annealing runs per (partial) problem")
		sweeps   = flag.Int("sweeps", 0, "default total annealing iteration budget (0 = device default)")
		parallel = flag.Int("parallelism", 0, "worker goroutines each solve may use, whatever the fleet size (0 = GOMAXPROCS, negative = sequential)")

		deadline    = flag.Duration("deadline", time.Minute, "default per-request deadline (queue wait + solve)")
		maxDeadline = flag.Duration("max-deadline", 10*time.Minute, "cap on client-requested deadlines")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint returned with 503 rejections")
		drain       = flag.Duration("drain", 2*time.Minute, "graceful-shutdown budget for in-flight solves")

		retries      = flag.Int("retries", 0, "re-attempts per device solve on transient failures (0 = no retry layer)")
		solveTimeout = flag.Duration("solve-timeout", 0, "per-device-solve deadline; expiry keeps best-so-far samples (0 = none)")
		breaker      = flag.Int("breaker", 0, "consecutive solve failures tripping the per-device circuit breaker (0 = no breaker)")
		fallback     = flag.String("fallback", "", "comma-separated fallback devices tried after the primary ("+strings.Join(devices.Names, ", ")+")")
		seed         = flag.Int64("seed", 1, "seed for the resilience middleware's deterministic backoff jitter")

		cacheEntries = flag.Int("cache-entries", 0, "cross-solve cache bound: distinct problem structures kept for partitioning/skeleton reuse, shared by the fleet (0 = caching off, -1 = default bound)")
		warmDrift    = flag.Float64("warm-drift", 0, "seed annealing from the cached incumbent when relative weight drift is within (0, bound]; requires -cache-entries (0 = warm starts off)")

		journalDir     = flag.String("journal-dir", "", "fsync accepted requests to an append-only journal in this directory and replay the unanswered remainder on restart (empty = journaling off)")
		shedTarget     = flag.Duration("shed-target", 0, "adaptive overload shedding: reject low/normal-priority requests while the p99 queue wait exceeds this target (0 = shedding off)")
		priority       = flag.String("priority", "", "default queue class for requests that carry none: low, normal or high (empty = normal)")
		watchdogFactor = flag.Float64("watchdog-factor", 0, "quarantine a fleet slot whose solve overruns its remaining deadline times this factor and ignores cancellation (0 = watchdog off)")

		trace     = flag.String("trace", "", "write a JSONL pipeline trace of every solve to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	// Metrics are always on for a daemon: /statsz serves the registry as
	// JSON and /metricsz in the Prometheus text format.
	reg := obs.NewRegistry()
	var sink *obs.Sink
	var flushTrace func()
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fail(err)
		}
		bw := bufio.NewWriter(f)
		sink = obs.NewSink(bw, reg)
		flushTrace = func() {
			sink.Close() //nolint:errcheck
			f.Close()    //nolint:errcheck
		}
	} else {
		sink = obs.NewSink(nil, reg)
		flushTrace = func() {}
	}
	if *pprofAddr != "" {
		go func() {
			// The default mux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "mqoserve: pprof listener: %v\n", err)
			}
		}()
	}

	srv, err := serve.New(serve.Config{
		QueueDepth:      *queue,
		Fleet:           *fleet,
		Device:          *device,
		Fallback:        devices.SplitNames(*fallback),
		Capacity:        *capacity,
		DefaultRuns:     *runs,
		DefaultSweeps:   *sweeps,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		RetryAfter:      *retryAfter,
		Retries:         *retries,
		SolveTimeout:    *solveTimeout,
		Breaker:         *breaker,
		Seed:            *seed,
		Parallelism:     *parallel,
		CacheEntries:    *cacheEntries,
		WarmStartDrift:  *warmDrift,
		Sink:            sink,

		JournalDir:      *journalDir,
		ShedTarget:      *shedTarget,
		DefaultPriority: *priority,
		WatchdogFactor:  *watchdogFactor,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("mqoserve: listening on %s (fleet %d × %s, queue %d)\n", *addr, *fleet, *device, *queue)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		flushTrace()
		fail(err)
	case sig := <-sigc:
		fmt.Printf("mqoserve: %v — draining (budget %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		flushTrace()
		if err != nil {
			fail(fmt.Errorf("drain incomplete: %w", err))
		}
		fmt.Println("mqoserve: drained cleanly")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mqoserve:", err)
	os.Exit(1)
}
