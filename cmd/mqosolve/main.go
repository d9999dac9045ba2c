// Command mqosolve optimises a JSON-encoded MQO instance (as produced by
// mqogen) with any of the repository's algorithms and prints the solution
// cost, pipeline statistics and optionally the full plan selection.
//
// Usage:
//
//	mqogen -queries 100 -ppq 10 | mqosolve -algorithm da-incremental
//	mqosolve -in instance.json -algorithm hc -print-solution
//
// Algorithms: da-incremental (paper's method, default), da-parallel,
// da-default, da-pt, sa-default, sa-incremental, hqa, va, hc, genetic,
// greedy, exact, astar.
//
// Observability: -trace out.jsonl records pipeline trace events, -metrics
// prints a metrics summary on exit, -pprof :6060 serves net/http/pprof.
// SIGINT flushes the partial trace before exiting.
//
// Resilience: -retries, -solve-timeout, -breaker and -fallback wrap the
// annealing device in retry/timeout/circuit-breaker/fallback middleware;
// -inject-faults applies a deterministic fault schedule to the primary
// device (for chaos testing); -fail-fast aborts on terminal device failure
// instead of completing the affected partial problems by greedy repair.
//
// Scheduling: the partitioned strategies solve independent partial problems
// concurrently over the DSS dependency DAG; the "dss dag:" line reports the
// graph's waves and width.
//
// Recurring workloads: -repeat N solves the instance N times; -cache turns
// on the cross-solve cache so later epochs reuse the first epoch's
// partitioning and encoding skeletons (a "cache:" line reports the reuse
// level), and -warm-drift additionally seeds annealing from the cached
// incumbent when plan costs drifted within the bound.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"incranneal/internal/baseline"
	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/devices"
	"incranneal/internal/faultinject"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solvecache"
	"incranneal/internal/solver"
)

func main() {
	var (
		in        = flag.String("in", "-", "instance file (\"-\" for stdin)")
		algorithm = flag.String("algorithm", "da-incremental", "algorithm to run")
		capacity  = flag.Int("capacity", 0, "override device variable capacity (0 = device default)")
		runs      = flag.Int("runs", 16, "annealing runs per (partial) problem")
		sweeps    = flag.Int("sweeps", 0, "total annealing iteration budget (0 = device default)")
		seed      = flag.Int64("seed", 1, "random seed")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget (0 = unbounded)")
		printSol  = flag.Bool("print-solution", false, "print the selected plan per query")
		trace     = flag.String("trace", "", "write a JSONL pipeline trace to this file")
		metrics   = flag.Bool("metrics", false, "print a metrics summary on exit")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")

		retries      = flag.Int("retries", 0, "re-attempts per device solve on transient failures (0 = no retry layer)")
		solveTimeout = flag.Duration("solve-timeout", 0, "per-solve deadline; expiry keeps the device's best-so-far samples (0 = none)")
		breaker      = flag.Int("breaker", 0, "consecutive solve failures tripping the per-device circuit breaker (0 = no breaker)")
		fallback     = flag.String("fallback", "", "comma-separated fallback devices tried after the primary ("+strings.Join(devices.Names, ", ")+")")
		injectFaults = flag.String("inject-faults", "", "deterministic fault schedule for the primary device, e.g. transient-first=2,terminal-after=4,corrupt")
		failFast     = flag.Bool("fail-fast", false, "abort on terminal device failure instead of degrading to greedy repair")

		useCache  = flag.Bool("cache", false, "enable the cross-solve cache: later -repeat epochs reuse the partitioning and encoding skeletons of earlier ones")
		repeat    = flag.Int("repeat", 1, "solve the instance this many times (recurring-workload emulation; combine with -cache)")
		warmDrift = flag.Float64("warm-drift", 0, "seed annealing from the cached incumbent when relative weight drift is within (0, bound]; implies -cache (0 = warm starts off)")
	)
	flag.Parse()

	p, err := readProblem(*in)
	if err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sink, flush, err := obs.SetupCLI("mqosolve", *trace, *metrics, *pprofAddr)
	if err != nil {
		fail(err)
	}
	defer flush()
	if sink.Enabled() {
		ctx = obs.NewContext(ctx, sink)
	}
	faults, err := faultinject.ParseSpec(*injectFaults)
	if err != nil {
		fail(err)
	}
	mw, err := devices.Stack{
		Retries:      *retries,
		SolveTimeout: *solveTimeout,
		Breaker:      *breaker,
		Fallback:     devices.SplitNames(*fallback),
		Faults:       faults,
		Seed:         *seed,
		Capacity:     *capacity,
	}.Middleware(devices.New)
	if err != nil {
		fail(err)
	}
	var cache *solvecache.Cache
	if *useCache || *warmDrift > 0 {
		cache = solvecache.New(0)
	}
	start := time.Now()
	var (
		sol   *mqo.Solution
		cost  float64
		stats string
	)
	for epoch := 0; epoch < max(1, *repeat); epoch++ {
		epochStart := time.Now()
		// Root the epoch's span tree so mqotrace can reconstruct it; the
		// trace id derives from the seed and epoch, never wall clock.
		epochCtx := ctx
		var rootSpan *obs.Span
		if sink.Enabled() {
			epochCtx, rootSpan = sink.StartTrace(ctx, "solve",
				obs.NewTraceID(*seed, fmt.Sprintf("%s/%d", *algorithm, epoch)))
			rootSpan.Attr("algorithm", *algorithm)
		}
		sol, cost, stats, err = run(epochCtx, *algorithm, p, *capacity, *runs, *sweeps, *seed, mw, *failFast, cache, *warmDrift)
		if err != nil {
			rootSpan.Attr("error", err.Error())
		}
		rootSpan.End()
		if err != nil {
			// SIGINT cancels ctx mid-solve; flush whatever the trace recorded
			// before reporting the interrupt.
			flush()
			if ctx.Err() != nil && *timeout == 0 {
				fmt.Fprintln(os.Stderr, "mqosolve: interrupted — partial trace and metrics flushed")
				os.Exit(130)
			}
			fail(err)
		}
		if *repeat > 1 {
			fmt.Printf("epoch %d:    cost %.4f in %v\n", epoch, cost, time.Since(epochStart).Round(time.Millisecond))
		}
	}
	fmt.Printf("instance:   %s (%d queries, %d plans, %d savings)\n", p.Name, p.NumQueries(), p.NumPlans(), p.NumSavings())
	fmt.Printf("algorithm:  %s\n", *algorithm)
	fmt.Printf("cost:       %.4f\n", cost)
	if g := mqo.GreedySolution(p); true {
		fmt.Printf("greedy:     %.4f (naive per-query selection)\n", g.Cost(p))
	}
	fmt.Printf("elapsed:    %v\n", time.Since(start).Round(time.Millisecond))
	if stats != "" {
		fmt.Print(stats)
	}
	if *printSol {
		for q, pl := range sol.Selected {
			fmt.Printf("q%d -> plan %d (cost %.2f)\n", q, pl, p.Cost(pl))
		}
	}
}

// annealers maps each annealing algorithm to its catalogue device and core
// strategy. With hardwarePartitions, a zero -capacity partitions to the
// DA's hardware capacity, as the paper's SA and HQA incremental runs do.
var annealers = map[string]struct {
	device             string
	solve              func(context.Context, *mqo.Problem, core.Options) (*core.Outcome, error)
	hardwarePartitions bool
}{
	"da-incremental": {"da", core.SolveIncremental, false},
	"da-parallel":    {"da", core.SolveParallel, false},
	"da-default":     {"da", core.SolveDefault, false},
	"da-pt":          {"da-pt", core.SolveIncremental, false},
	"va":             {"va", core.SolveIncremental, false},
	"sa-default":     {"sa", core.SolveDefault, false},
	"sa-incremental": {"sa", core.SolveIncremental, true},
	"hqa":            {"hqa", core.SolveIncremental, true},
}

func run(ctx context.Context, algorithm string, p *mqo.Problem, capacity, runs, sweeps int, seed int64, mw func(solver.Solver) solver.Solver, failFast bool, cache *solvecache.Cache, warmDrift float64) (*mqo.Solution, float64, string, error) {
	copt := core.Options{Capacity: capacity, Runs: runs, TotalSweeps: sweeps, Seed: seed, FailFast: failFast, Cache: cache, WarmStartDrift: warmDrift}
	bopt := baseline.Options{Seed: seed}
	annealOutcome := func(out *core.Outcome, err error) (*mqo.Solution, float64, string, error) {
		if err != nil {
			return nil, 0, "", err
		}
		stats := fmt.Sprintf("partitions: %d\ndiscarded:  %.2f (savings crossing partitions)\nreapplied:  %.2f (via DSS)\nsweeps:     %d\n",
			out.NumPartitions, out.DiscardedSavings, out.ReappliedSavings, out.Sweeps)
		if out.DAG != nil {
			stats += fmt.Sprintf("dss dag:    %d edges, density %.2f — %d waves, width %d\n",
				out.DAG.Edges, out.DAG.Density, out.DAG.Waves, out.DAG.Width)
		}
		if out.Cache != nil {
			state := "miss"
			if out.Cache.StructureHit {
				state = "hit (partitioning reused)"
			}
			warm := ""
			if out.Cache.WarmStart {
				warm = fmt.Sprintf(", warm start (drift %.3f)", out.Cache.Drift)
			}
			stats += fmt.Sprintf("cache:      structure %s, skeletons %d/%d rebound%s\n",
				state, out.Cache.SkeletonHits, out.Cache.SkeletonHits+out.Cache.SkeletonMisses, warm)
		}
		if len(out.Degradations) > 0 {
			stats += fmt.Sprintf("degraded:   %d partial problem(s) completed by greedy repair\n", len(out.Degradations))
			for _, d := range out.Degradations {
				scope := fmt.Sprintf("sub %d", d.Sub)
				if d.Sub < 0 {
					scope = "whole problem"
				}
				stats += fmt.Sprintf("  %s on %s after %d attempt(s): %s\n", scope, d.Device, d.Attempts, d.Reason)
			}
		}
		return out.Solution, out.Cost, stats, nil
	}
	baselineOutcome := func(res *baseline.Result, err error) (*mqo.Solution, float64, string, error) {
		if err != nil {
			return nil, 0, "", err
		}
		return res.Solution, res.Cost, fmt.Sprintf("iterations: %d\n", res.Iterations), nil
	}
	// Every annealing algorithm runs its catalogue device under the same
	// middleware, so -retries/-fallback/-inject-faults compose with every
	// device. The partitioning phase reuses the wrapped device
	// (PartitionSolver is nil), so bisection solves are protected too.
	if a, ok := annealers[algorithm]; ok {
		dev, err := devices.New(a.device, 0)
		if err != nil {
			return nil, 0, "", err
		}
		copt.Device = mw(dev)
		if a.hardwarePartitions && copt.Capacity == 0 {
			copt.Capacity = da.HardwareCapacity
		}
		return annealOutcome(a.solve(ctx, p, copt))
	}
	switch algorithm {
	case "hc":
		return baselineOutcome(baseline.HillClimb(ctx, p, bopt))
	case "genetic":
		return baselineOutcome(baseline.Genetic(ctx, p, baseline.GeneticOptions{Options: bopt}))
	case "greedy":
		sol := mqo.GreedySolution(p)
		return sol, sol.Cost(p), "", nil
	case "exact":
		return baselineOutcome(baseline.Exact(ctx, p, bopt))
	case "astar":
		return baselineOutcome(baseline.AStar(ctx, p, bopt))
	default:
		return nil, 0, "", fmt.Errorf("unknown algorithm %q", algorithm)
	}
}

func readProblem(path string) (*mqo.Problem, error) {
	if path == "-" {
		return mqo.ReadProblem(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mqo.ReadProblem(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mqosolve:", err)
	os.Exit(1)
}
