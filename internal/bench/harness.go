// Package bench is the experiment harness reproducing the paper's
// evaluation (Sec. 5): it assembles the eight competing MQO approaches,
// runs them over generated instance corpora, normalises solution costs
// against the per-instance best (the paper's "normalised solution costs"),
// and renders the rows behind every figure.
package bench

import (
	"context"
	"fmt"
	"time"

	"incranneal/internal/baseline"
	"incranneal/internal/core"
	"incranneal/internal/devices"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solver"
)

// Config budgets the experiment roster. The zero value is usable and
// corresponds to a laptop-scale reduction of the paper's setup; Paper()
// returns the full-scale configuration.
type Config struct {
	// DACapacity is the simulated Digital Annealer variable capacity. The
	// real device holds 8,192 variables; reduced-scale experiments shrink
	// the device proportionally so partitioning still kicks in. Zero
	// means 512.
	DACapacity int
	// Runs is the number of annealing runs per (partial) problem; the
	// paper uses 16. Zero means 4 (reduced scale).
	Runs int
	// SweepsPerVar scales the Digital Annealer's total step budget with
	// the problem size (total steps = SweepsPerVar × #plans, split across
	// partitions so the overall iteration count stays constant between
	// strategies, as in the paper's setup). Zero means 100.
	SweepsPerVar int
	// HCIterations bounds hill climbing move evaluations. Zero means
	// 200,000.
	HCIterations int
	// GeneticGenerations and GeneticPopulations configure the GA runs;
	// the paper evaluates population sizes 50 and 200 and reports the
	// best. Zeros mean 60 generations over populations {50, 200}.
	GeneticGenerations int
	GeneticPopulations []int
	// TimeBudget bounds the wall-clock time of each hill-climbing run and
	// of each genetic population, as a context deadline. Fig. 7 also
	// bounds each of its annealing runs by it (3m when zero). Zero means
	// unbounded.
	TimeBudget time.Duration
	// Parallelism bounds each solve's worker pool (annealing runs and
	// partition-level concurrency). Zero means GOMAXPROCS; results are
	// identical for every setting, so reports stay comparable across
	// machines.
	Parallelism int
	// Middleware, when non-nil, wraps every annealing device the roster
	// constructs (fault injection, retry/timeout/breaker/fallback stacks —
	// see devices.Stack). Baselines without a device are unaffected. With
	// no faults injected the wrapped rosters score bit-identically.
	Middleware func(solver.Solver) solver.Solver
	// FailFast forwards to core.Options.FailFast: abort a run on terminal
	// device failure instead of degrading to greedy repair.
	FailFast bool
}

// wrap applies the configured device middleware.
func (c Config) wrap(dev solver.Solver) solver.Solver {
	if c.Middleware != nil {
		return c.Middleware(dev)
	}
	return dev
}

// budget bounds one baseline search by TimeBudget.
func (c Config) budget(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.TimeBudget > 0 {
		return context.WithTimeout(ctx, c.TimeBudget)
	}
	return context.WithCancel(ctx)
}

// Paper returns the configuration matching the paper's experimental setup
// (Sec. 5.1): the 8,192-variable DA, 16 runs, and the heuristics' larger
// budgets. Running the full corpus at this configuration takes hours.
func Paper() Config {
	return Config{
		DACapacity:         8192,
		Runs:               16,
		SweepsPerVar:       100,
		HCIterations:       2000000,
		GeneticGenerations: 500,
		GeneticPopulations: []int{50, 200},
	}
}

func (c Config) withDefaults() Config {
	if c.DACapacity <= 0 {
		c.DACapacity = 512
	}
	if c.Runs <= 0 {
		c.Runs = 4
	}
	if c.SweepsPerVar <= 0 {
		c.SweepsPerVar = 100
	}
	if c.HCIterations <= 0 {
		c.HCIterations = 200000
	}
	if c.GeneticGenerations <= 0 {
		c.GeneticGenerations = 60
	}
	if len(c.GeneticPopulations) == 0 {
		c.GeneticPopulations = []int{50, 200}
	}
	return c
}

// headerLines renders the effective run configuration for report headers:
// everything a reader needs to reproduce a table from the binary alone.
// Per-instance seeds derive deterministically from the figure label and the
// instance axes (workload.ClassSeed), so naming the derivation pins them.
func (c Config) headerLines(scale Scale) []string {
	c = c.withDefaults()
	par := "GOMAXPROCS"
	switch {
	case c.Parallelism > 0:
		par = fmt.Sprintf("%d", c.Parallelism)
	case c.Parallelism < 0:
		par = "sequential"
	}
	budget := "unbounded"
	if c.TimeBudget > 0 {
		budget = c.TimeBudget.String()
	}
	return []string{
		fmt.Sprintf("scale=%s instances=%d device=da(capacity=%d)", scale.Name, scale.Instances, c.DACapacity),
		fmt.Sprintf("runs=%d sweeps_per_var=%d (total sweeps = sweeps_per_var × #plans) parallelism=%s time_budget=%s", c.Runs, c.SweepsPerVar, par, budget),
		"seeds: workload.ClassSeed(figure label, axes, instance) — fixed per cell, independent of execution order",
	}
}

// Score is the result of one algorithm run: the solution cost plus, for the
// pipeline-based approaches, the per-phase wall-clock breakdown. Baselines
// without pipeline phases leave Timings zero.
type Score struct {
	Cost    float64
	Timings core.PhaseTimings
	// Degraded counts partial problems completed by greedy repair after a
	// terminal device failure (see core.Outcome.Degradations).
	Degraded int
}

// Algorithm is one competing MQO approach of the evaluation.
type Algorithm struct {
	// Name as used in the paper's figures.
	Name string
	// Run optimises p and returns the solution score.
	Run func(ctx context.Context, p *mqo.Problem, seed int64) (Score, error)
}

// Roster assembles the eight approaches of Sec. 5.1 under the given
// budget configuration:
//
//	HC, Genetic, SA (Default), SA (Incremental), HQA,
//	DA (Default), DA (Parallel), DA (Incremental).
func Roster(cfg Config) []Algorithm {
	cfg = cfg.withDefaults()
	return []Algorithm{
		HC(cfg), Genetic(cfg),
		SADefault(cfg), SAIncremental(cfg),
		HQAIncremental(cfg),
		DADefault(cfg), DAParallel(cfg), DAIncremental(cfg),
	}
}

// ProcessingRoster returns only the DA processing-strategy comparison used
// by Figs. 4 and 5: default vs. parallel vs. incremental.
func ProcessingRoster(cfg Config) []Algorithm {
	cfg = cfg.withDefaults()
	return []Algorithm{DADefault(cfg), DAParallel(cfg), DAIncremental(cfg)}
}

// HC is the hill-climbing baseline (Dokeroglu et al.).
func HC(cfg Config) Algorithm {
	cfg = cfg.withDefaults()
	return Algorithm{
		Name: "HC",
		Run: func(ctx context.Context, p *mqo.Problem, seed int64) (Score, error) {
			ctx, cancel := cfg.budget(ctx)
			defer cancel()
			res, err := baseline.HillClimb(ctx, p, baseline.Options{
				MaxIterations: cfg.HCIterations, Seed: seed,
			})
			if err != nil {
				return Score{}, err
			}
			return Score{Cost: res.Cost}, nil
		},
	}
}

// Genetic is the GA baseline (Bayir et al.); like the paper it evaluates
// the configured population sizes and reports the best result.
func Genetic(cfg Config) Algorithm {
	cfg = cfg.withDefaults()
	return Algorithm{
		Name: "Genetic",
		Run: func(ctx context.Context, p *mqo.Problem, seed int64) (Score, error) {
			best := 0.0
			for i, pop := range cfg.GeneticPopulations {
				popCtx, cancel := cfg.budget(ctx)
				res, err := baseline.Genetic(popCtx, p, baseline.GeneticOptions{
					Options:        baseline.Options{MaxIterations: cfg.GeneticGenerations, Seed: seed + int64(i)},
					PopulationSize: pop,
				})
				cancel()
				if err != nil {
					return Score{}, err
				}
				if i == 0 || res.Cost < best {
					best = res.Cost
				}
			}
			return Score{Cost: best}, nil
		},
	}
}

// SADefault runs classical simulated annealing on the unpartitioned QUBO.
func SADefault(cfg Config) Algorithm {
	cfg = cfg.withDefaults()
	return pipeline(cfg, "SA (Default)", "sa", core.SolveDefault, cfg.Runs, 0, saSweeps)
}

// SAIncremental applies the paper's incremental strategy with classical SA
// as the annealing backend (same partitioning capacity as the DA, reduced
// per-partition iteration budgets keeping the total constant).
func SAIncremental(cfg Config) Algorithm {
	cfg = cfg.withDefaults()
	return pipeline(cfg, "SA (Incremental)", "sa", core.SolveIncremental, cfg.Runs, cfg.DACapacity, saSweeps)
}

// HQAIncremental runs the hybrid quantum annealer simulator with the
// incremental strategy (the only HQA variant the paper could afford).
func HQAIncremental(cfg Config) Algorithm {
	cfg = cfg.withDefaults()
	return pipeline(cfg, "HQA", "hqa", core.SolveIncremental, 1, cfg.DACapacity, defaultSweeps)
}

// DADefault runs the Digital Annealer with its vendor decomposition on the
// unpartitioned QUBO.
func DADefault(cfg Config) Algorithm {
	cfg = cfg.withDefaults()
	return pipeline(cfg, "DA (Default)", "da", core.SolveDefault, cfg.Runs, 0, daSweeps)
}

// DAParallel runs the DA over independently processed partitions.
func DAParallel(cfg Config) Algorithm {
	cfg = cfg.withDefaults()
	return pipeline(cfg, "DA (Parallel)", "da", core.SolveParallel, cfg.Runs, 0, daSweeps)
}

// DAIncremental is the paper's method: DA with annealer-backed partitioning
// and DSS-steered incremental processing.
func DAIncremental(cfg Config) Algorithm {
	cfg = cfg.withDefaults()
	return pipeline(cfg, "DA (Incremental)", "da", core.SolveIncremental, cfg.Runs, 0, daSweeps)
}

// pipeline is a roster entry that runs a fresh catalogue device, sized to
// cfg.DACapacity and wrapped in the configured middleware, through one
// core strategy. cfg must already carry its defaults. capacity and runs
// are the core.Options fields; sweeps gives the total sweep budget for p.
func pipeline(cfg Config, label, device string, solve func(context.Context, *mqo.Problem, core.Options) (*core.Outcome, error), runs, capacity int, sweeps func(Config, *mqo.Problem) int) Algorithm {
	return Algorithm{
		Name: label,
		Run: func(ctx context.Context, p *mqo.Problem, seed int64) (Score, error) {
			dev, err := devices.New(device, cfg.DACapacity)
			if err != nil {
				return Score{}, err
			}
			out, err := solve(ctx, p, core.Options{
				Device: cfg.wrap(dev), Capacity: capacity, Runs: runs,
				TotalSweeps: sweeps(cfg, p), Seed: seed, Parallelism: cfg.Parallelism,
				FailFast: cfg.FailFast,
			})
			if err != nil {
				return Score{}, err
			}
			return Score{Cost: out.Cost, Timings: out.Timings, Degraded: len(out.Degradations)}, nil
		},
	}
}

// daSweeps is the Digital Annealer's total step budget for p: proportional
// to the problem size so the effective number of sweeps per variable stays
// constant across the corpus, exactly as a fixed per-run optimisation time
// on the real device would behave.
func daSweeps(cfg Config, p *mqo.Problem) int {
	return cfg.SweepsPerVar * p.NumPlans()
}

// saSweeps is the classical SA budget: the dwave-neal default of 1,000
// sweeps the paper uses; the incremental strategy divides it across
// partitions to keep the total constant (Sec. 5.1).
func saSweeps(Config, *mqo.Problem) int { return 1000 }

// defaultSweeps leaves the budget to the device's own default.
func defaultSweeps(Config, *mqo.Problem) int { return 0 }

// Measurement is one (algorithm, instance) result.
type Measurement struct {
	Algorithm string
	Instance  string
	Cost      float64
	// Normalised is Cost divided by the best cost any algorithm achieved
	// on the same instance; the winner scores exactly 1.
	Normalised float64
	Elapsed    time.Duration
	// Timings breaks Elapsed down by pipeline phase for the pipeline-based
	// approaches (zero for the baselines).
	Timings core.PhaseTimings
	// Degraded counts greedy-repaired partial problems (device failures
	// absorbed by graceful degradation).
	Degraded int
	// AnnealP50/AnnealP99 are the per-device-call anneal latency quantiles
	// in milliseconds, from a metrics-only sink injected around the run
	// (zero for baselines that never touch a device).
	AnnealP50 float64
	AnnealP99 float64
	Err       error
}

// RunInstance executes every algorithm on p and fills in normalised costs.
// Each run observes through a private metrics registry (chained to any sink
// already on ctx), so per-phase latency quantiles are attributable per
// measurement without the algorithms sharing histogram state.
func RunInstance(ctx context.Context, algos []Algorithm, p *mqo.Problem, seed int64) []Measurement {
	ms := make([]Measurement, len(algos))
	best := 0.0
	haveBest := false
	for i, a := range algos {
		reg := obs.NewRegistry()
		runCtx := obs.NewContext(ctx, obs.NewSink(nil, reg).Chain(obs.FromContext(ctx)))
		start := time.Now()
		score, err := a.Run(runCtx, p, seed+int64(i)*7919)
		anneal := reg.Histogram("latency.anneal_ms").Snapshot()
		ms[i] = Measurement{Algorithm: a.Name, Instance: p.Name, Cost: score.Cost, Elapsed: time.Since(start), Timings: score.Timings, Degraded: score.Degraded, AnnealP50: anneal.P50, AnnealP99: anneal.P99, Err: err}
		if err == nil && (!haveBest || score.Cost < best) {
			best = score.Cost
			haveBest = true
		}
	}
	for i := range ms {
		if ms[i].Err == nil && best != 0 {
			ms[i].Normalised = ms[i].Cost / best
		}
	}
	return ms
}
