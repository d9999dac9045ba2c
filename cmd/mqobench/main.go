// Command mqobench regenerates the paper's evaluation figures: it runs the
// experiment harness for each figure (and the ablation studies) and prints
// the rows behind the plots as aligned text tables or CSV.
//
// Usage:
//
//	mqobench                      # every figure at reduced scale
//	mqobench -fig 3 -scale paper  # Fig. 3 at the paper's full dimensions
//	mqobench -fig ablation        # the ablation studies
//	mqobench -csv -out results/   # CSV files, one per figure
//	mqobench -fig convergence -trace run.jsonl -metrics
//
// Observability:
//
//	-trace out.jsonl   record pipeline trace events (JSONL, one per line)
//	-metrics           print a metrics summary table on exit
//	-pprof :6060       serve net/http/pprof on this address
//
// SIGINT flushes the partial trace before exiting, so interrupted long runs
// keep everything recorded so far.
//
// Resilience: -retries, -solve-timeout, -breaker and -fallback wrap every
// annealing device in retry/timeout/circuit-breaker/fallback middleware;
// -inject-faults applies a deterministic fault schedule to the primary
// devices (chaos benchmarking — the phases report's "deg" column counts the
// partial problems completed by greedy repair); -fail-fast aborts instead.
//
// Scheduling: -parallelism -1 runs every incremental solve as the strictly
// sequential chain of Algorithm 2, and -fig dag runs the execution-order
// ablation (sequential vs. DAG-parallel vs. DSS off on sparse-dependency
// workloads).
//
// Caching: -fig warm measures the cross-solve cache on recurring workloads —
// cold vs. structure-hit vs. warm-start latency and sweeps-to-parity
// (EXPERIMENTS.md records reference runs); the phases report carries a
// cached-second-run row attributing the saved time to the partition phase.
//
// Serving: -fig chaos soaks the mqoserve HTTP stack in-process under
// injected worker kills, slow workers and journal write failures, asserting
// the crash-safety invariants — every request answered, every OK cost
// bit-identical to a standalone solve via checkpoint resume, every stream
// well-formed (EXPERIMENTS.md records a reference run). Serving latency and
// throughput are measured by the repository benchmark's serve-mixed
// workload (benchmark/).
//
// An unknown -fig name exits with status 2 and lists the valid names.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"incranneal/internal/bench"
	"incranneal/internal/devices"
	"incranneal/internal/faultinject"
	"incranneal/internal/obs"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "comma-separated figures to regenerate: 1, 3, 4, 5, 6, 7, devices, phases, convergence, dag, warm, chaos, ablation or all")
		scale     = flag.String("scale", "reduced", "experiment scale: smoke, reduced or paper")
		csv       = flag.Bool("csv", false, "emit CSV instead of text tables")
		outDir    = flag.String("out", "", "write per-figure files to this directory instead of stdout")
		timeout   = flag.Duration("timeout", 0, "per-algorithm run budget for the runtime figure (0 = 3m)")
		workers   = flag.Int("parallelism", 0, "worker goroutines per solve (0 = all cores, results identical for any value)")
		trace     = flag.String("trace", "", "write a JSONL pipeline trace to this file")
		metrics   = flag.Bool("metrics", false, "print a metrics summary on exit")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")

		retries      = flag.Int("retries", 0, "re-attempts per device solve on transient failures (0 = no retry layer)")
		solveTimeout = flag.Duration("solve-timeout", 0, "per-solve deadline; expiry keeps the device's best-so-far samples (0 = none)")
		breaker      = flag.Int("breaker", 0, "consecutive solve failures tripping the per-device circuit breaker (0 = no breaker)")
		fallback     = flag.String("fallback", "", "comma-separated fallback devices tried after the primary ("+strings.Join(devices.Names, ", ")+")")
		injectFaults = flag.String("inject-faults", "", "deterministic fault schedule for every primary device, e.g. transient-first=2,terminal-after=4")
		failFast     = flag.Bool("fail-fast", false, "abort a run on terminal device failure instead of degrading to greedy repair")
	)
	flag.Parse()

	sc, err := scaleFor(*scale)
	if err != nil {
		fail(err)
	}
	cfg := bench.ConfigFor(sc)
	if *timeout > 0 {
		cfg.TimeBudget = *timeout
	}
	cfg.Parallelism = *workers
	faults, err := faultinject.ParseSpec(*injectFaults)
	if err != nil {
		fail(err)
	}
	cfg.Middleware, err = devices.Stack{
		Retries:      *retries,
		SolveTimeout: *solveTimeout,
		Breaker:      *breaker,
		Fallback:     devices.SplitNames(*fallback),
		Faults:       faults,
		Seed:         1,
		Capacity:     cfg.DACapacity,
	}.Middleware(devices.New)
	if err != nil {
		fail(err)
	}
	cfg.FailFast = *failFast
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sink, flush, err := obs.SetupCLI("mqobench", *trace, *metrics, *pprofAddr)
	if err != nil {
		fail(err)
	}
	defer flush()
	if sink.Enabled() {
		ctx = obs.NewContext(ctx, sink)
	}

	type job struct {
		name string
		run  func() (*bench.Report, error)
	}
	jobs := []job{
		{"1", func() (*bench.Report, error) { return bench.Fig1(sc), nil }},
		{"3", func() (*bench.Report, error) { return bench.Fig3(ctx, cfg, sc) }},
		{"4", func() (*bench.Report, error) { return bench.Fig4(ctx, cfg, sc) }},
		{"5", func() (*bench.Report, error) { return bench.Fig5(ctx, cfg, sc) }},
		{"6", func() (*bench.Report, error) { return bench.Fig6(ctx, cfg, sc) }},
		{"7", func() (*bench.Report, error) { return bench.Fig7(ctx, cfg, sc) }},
		{"devices", func() (*bench.Report, error) { return bench.DeviceShootout(ctx, cfg, sc) }},
		{"phases", func() (*bench.Report, error) { return bench.PhaseReport(ctx, cfg, sc) }},
		{"convergence", func() (*bench.Report, error) { return bench.Convergence(ctx, cfg, sc) }},
		{"dag", func() (*bench.Report, error) { return bench.AblationDAG(ctx, cfg, sc) }},
		{"warm", func() (*bench.Report, error) { return bench.WarmStarts(ctx, cfg, sc) }},
		{"chaos", func() (*bench.Report, error) { return bench.ChaosSoak(ctx, cfg, sc) }},
		{"ablation", func() (*bench.Report, error) { return nil, nil }}, // expanded below
	}
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.name
	}
	selected, err := selectFigures(*fig, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqobench:", err)
		os.Exit(2)
	}

	emit := func(r *bench.Report) {
		if r == nil {
			return
		}
		if *outDir != "" {
			ext := ".txt"
			body := r.String()
			if *csv {
				ext = ".csv"
				body = r.CSV()
			}
			path := filepath.Join(*outDir, r.ID+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			return
		}
		if *csv {
			fmt.Println(r.CSV())
		} else {
			fmt.Println(r)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}

	// checkJob distinguishes a genuine failure from an interrupt: SIGINT
	// cancels ctx, the in-flight figure returns the cancellation error, and
	// the partial trace must still reach disk.
	checkJob := func(name string, err error) {
		if err == nil {
			return
		}
		flush()
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "mqobench: interrupted — partial trace and metrics flushed")
			os.Exit(130)
		}
		fail(fmt.Errorf("fig %s: %w", name, err))
	}

	start := time.Now()
	for _, j := range jobs[:len(jobs)-1] {
		if !selected[j.name] {
			continue
		}
		r, err := j.run()
		checkJob(j.name, err)
		emit(r)
	}
	if selected["ablation"] {
		for _, run := range []func(context.Context, bench.Config, bench.Scale) (*bench.Report, error){
			bench.AblationDSS, bench.AblationPostProcess, bench.AblationLagrange,
			bench.AblationDigitalAnnealer, bench.AblationBudget, bench.AblationDAG,
		} {
			r, err := run(ctx, cfg, sc)
			checkJob("ablation", err)
			emit(r)
		}
	}
	fmt.Fprintf(os.Stderr, "mqobench: done in %v (%s scale)\n", time.Since(start).Round(time.Second), sc.Name)
}

// selectFigures parses the -fig list: "all" selects every name, and any
// name that is neither a figure nor "all" is an error listing the valid
// names.
func selectFigures(spec string, names []string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		switch {
		case f == "all":
			for _, n := range names {
				selected[n] = true
			}
		case slices.Contains(names, f):
			selected[f] = true
		default:
			return nil, fmt.Errorf("unknown figure %q (want %s or all)", f, strings.Join(names, ", "))
		}
	}
	return selected, nil
}

func scaleFor(name string) (bench.Scale, error) {
	switch name {
	case "smoke":
		return bench.SmokeScale(), nil
	case "reduced":
		return bench.ReducedScale(), nil
	case "paper":
		return bench.PaperScale(), nil
	default:
		return bench.Scale{}, fmt.Errorf("unknown scale %q (want smoke, reduced or paper)", name)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mqobench:", err)
	os.Exit(1)
}
