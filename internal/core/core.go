// Package core implements the paper's contribution: incremental
// quantum(-inspired) annealing for large-scale MQO. It combines the
// partitioning phase (internal/partition) with three processing strategies
// over the resulting partial problems:
//
//   - Incremental (Sec. 4.2, Algorithms 2 and 3): partial problems are
//     solved one after another; after each solve, dynamic search steering
//     (DSS) re-applies initially discarded savings by reducing the plan
//     costs of still-unsolved partial problems, steering their optimisation
//     towards the incumbent global solution. This is the paper's method.
//   - Parallel: partial problems are solved independently and merged —
//     faster, but blind to inter-partition savings.
//   - Default: the device's own large-problem handling (e.g. the DA's
//     vendor partitioning) on the unpartitioned QUBO.
//
// Both partitioned strategies run on one executor (dag.go): the partial
// problems are ordered by their DSS dependency graph and solved in
// topological waves. The incremental strategy's graph links every pair of
// partial problems that share a discarded saving, and a single worker
// (Parallelism -1) runs its waves one partial problem at a time — exactly
// Algorithm 2's chain. The parallel strategy turns DSS off, so its graph is
// edgeless and every partial problem solves in one wave.
package core

import (
	"context"
	"fmt"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/partition"
	"incranneal/internal/solvecache"
	"incranneal/internal/solver"
)

// Options configures an MQO solve.
type Options struct {
	// Device is the quantum(-inspired) annealer for the MQO phase.
	// Required.
	Device solver.Solver
	// PartitionSolver is the device for the partitioning phase's bisection
	// QUBOs; nil reuses Device (the paper's "multiple uses" of the same
	// annealer).
	PartitionSolver solver.Solver
	// Capacity overrides the partial-problem variable limit; zero uses the
	// device capacity (or leaves the problem unpartitioned for
	// capacity-free devices).
	Capacity int
	// Runs is the number of annealing runs per (partial) problem; zero
	// uses the device default (16 in the paper's setup).
	Runs int
	// TotalSweeps is the overall annealing iteration budget. The
	// incremental and parallel strategies divide it evenly across partial
	// problems so that the total matches an unpartitioned solve, as in the
	// paper's constant-budget comparisons. The partitioning phase sizes
	// each bisection from it: an n-node bisection anneals
	// ⌈TotalSweeps·n/NumPlans⌉ steps per run, an unpartitioned solve's
	// steps per variable (see partition.Options.Sweeps). Zero uses device
	// defaults per partial problem and per bisection.
	TotalSweeps int
	// Seed makes the full pipeline deterministic.
	Seed int64
	// PostProcessParses forwards to partition.Options; see there.
	PostProcessParses int
	// Parallelism bounds worker goroutines throughout the pipeline: it
	// caps concurrent partial-problem solves within a wave and is
	// forwarded to the device as Request.Parallelism, bounding its
	// run-level worker pool. Zero means GOMAXPROCS, negative forces
	// sequential execution. Any setting yields identical results.
	Parallelism int
	// DisableDSS turns dynamic search steering off in the incremental
	// strategy (ablation): discarded savings are never re-applied, so the
	// partial problems are independent and solve as the parallel strategy
	// does.
	DisableDSS bool
	// FailFast restores the pre-degradation contract: a terminal device
	// failure aborts the solve with an error instead of completing the
	// affected partial problem by greedy repair. Also forwarded to the
	// partitioning phase (see partition.Options.FailFast).
	FailFast bool
	// Cache is the cross-solve cache (internal/solvecache): fingerprinted
	// partitionings, pooled encoding skeletons and warm-start incumbents,
	// shared by every solve handed the same handle. Nil disables
	// cross-solve reuse. Cache misses are bit-identical to running without
	// a cache, and a structure hit on bit-identical weights reproduces the
	// original cold solve exactly; a hit on *drifted* weights reuses the
	// shape-derived partitioning instead of re-bisecting under the new
	// weights — the cache's core trade, gated by the warm-start ablation
	// figure (mqobench -fig warm). Only the partitioned strategies
	// (incremental and parallel) consult the cache.
	Cache *solvecache.Cache
	// CheckpointFunc, when set, receives a consistent restart point after
	// every partial-problem merge of a partitioned incremental or parallel
	// solve (unpartitioned solves and the default strategy never call it).
	// Checkpoints are deep copies delivered from the solve's serial merge
	// path — the callback must not block for long, but may retain them
	// indefinitely. Left nil, the solve records nothing. See Checkpoint.
	CheckpointFunc func(*Checkpoint)
	// Resume restarts a partitioned incremental or parallel solve from a
	// Checkpoint: partitioning is rebuilt from the checkpoint's query sets
	// (no bisection runs), finished partial problems replay their recorded
	// selections instead of solving, and the remainder solve normally. The
	// resumed Outcome is bit-identical to the uninterrupted run (costs,
	// selections, sweeps, degradations — not wall-clock timings). The
	// checkpoint must come from the same problem, seed, capacity and
	// steering mode (DisableDSS); a mismatch fails the solve. Resume
	// disables the cross-solve cache for this solve, so a resumed run
	// never picks up warm starts the interrupted run did not have.
	Resume *Checkpoint
	// WarmStartDrift enables warm starts on structure-cache hits: when the
	// relative weight drift against the cached solve (solvecache.
	// WeightDrift) is positive and at most this bound, part of every
	// partial problem's annealing runs (solver.Request.WarmRuns) start
	// from the cached incumbent's plan selections instead of random
	// states. Zero disables warm starts. Exact recurrences (drift 0)
	// always run cold-seeded, so re-solving an identical problem stays
	// bit-identical to the first solve.
	WarmStartDrift float64

	// onMerge receives the incumbent after every partial-problem merge of
	// a partitioned solve, from the wave executor's serial merge barrier.
	// Only Session.Start sets it, on the session's own copy of the options.
	onMerge func(Incumbent)
}

// Outcome reports a completed MQO solve.
type Outcome struct {
	// Solution is the complete, validated plan selection.
	Solution *mqo.Solution
	// Cost is the solution's total cost on the original problem.
	Cost float64
	// Strategy names the processing strategy used.
	Strategy string
	// NumPartitions is the number of partial problems processed (1 when
	// the problem fits the device directly).
	NumPartitions int
	// DiscardedSavings is the savings magnitude crossing partition
	// boundaries (0 without partitioning).
	DiscardedSavings float64
	// ReappliedSavings is the savings magnitude DSS re-applied through
	// plan-cost adjustments (incremental strategy only).
	ReappliedSavings float64
	// Sweeps is the total number of annealing iterations performed.
	Sweeps int
	// Elapsed is the wall-clock optimisation time.
	Elapsed time.Duration
	// Timings breaks Elapsed down by pipeline phase.
	Timings PhaseTimings
	// Degradations lists the partial problems whose device solves failed
	// terminally and were completed by greedy repair instead, in
	// partial-problem order. Empty for a fully-annealed solve; see
	// Options.FailFast to abort on failure instead.
	Degradations []Degradation
	// DAG describes the DSS dependency graph a partitioned strategy built
	// over the partial problems (edgeless without DSS), nil for the default
	// strategy and for unpartitioned solves.
	DAG *DAGStats
	// Cache reports the cross-solve cache's part in this solve; nil when
	// no cache was configured or the solve never reached the partitioned
	// phase.
	Cache *CacheOutcome
}

// PhaseTimings attributes wall-clock time to the pipeline phases. Each
// entry is the summed duration of its phase's spans; the partial problems
// of one wave solve concurrently, so their encode, anneal and decode
// durations may sum to more than Elapsed.
type PhaseTimings struct {
	// Partition is the partitioning phase (graph build, recursive bisection,
	// post-processing).
	Partition time.Duration
	// Encode covers QUBO skeleton preparation and each partial problem's
	// materialisation just before its anneal.
	Encode time.Duration
	// Anneal is device solve time.
	Anneal time.Duration
	// Decode covers sample decoding, repair, and solution merging.
	Decode time.Duration
	// DSS is the time spent in dynamic search steering passes (Algorithm 3):
	// scanning pending discarded savings and adjusting plan costs. Zero for
	// the parallel and default strategies, and under -dss=false.
	DSS time.Duration
}

// Total sums the per-phase durations.
func (t PhaseTimings) Total() time.Duration {
	return t.Partition + t.Encode + t.Anneal + t.Decode + t.DSS
}

func (o Options) capacity() int {
	if o.Capacity > 0 {
		return o.Capacity
	}
	if o.Device != nil {
		return o.Device.Capacity()
	}
	return 0
}

// needsPartitioning reports whether p exceeds the effective capacity.
func (o Options) needsPartitioning(p *mqo.Problem) bool {
	c := o.capacity()
	return c > 0 && p.NumPlans() > c
}

// partitionOptions assembles the partitioning phase's options; Partition
// and the cache-hit Refit path must run under the same settings so a refit
// re-bisection behaves exactly like a fresh one.
func (o Options) partitionOptions() partition.Options {
	ps := o.PartitionSolver
	if ps == nil {
		ps = o.Device
	}
	return partition.Options{
		Capacity:          o.capacity(),
		Solver:            ps,
		Runs:              o.Runs,
		Sweeps:            o.TotalSweeps, // the whole budget; partition sizes each bisection from it
		Seed:              o.Seed,
		PostProcessParses: o.PostProcessParses,
		Parallelism:       o.Parallelism,
		FailFast:          o.FailFast,
	}
}

// partitionProblem runs the partitioning phase with o's settings.
func (o Options) partitionProblem(ctx context.Context, p *mqo.Problem) (*partition.Result, error) {
	return partition.Partition(ctx, p, o.partitionOptions())
}

// partitionSweeps returns the sweep budget of the i-th of n partial
// problems: TotalSweeps divided evenly, with the remainder distributed one
// sweep each over the first TotalSweeps mod n partitions so the per-partition
// budgets sum exactly to TotalSweeps (constant-budget comparisons previously
// ran up to n−1 sweeps under budget).
func (o Options) partitionSweeps(n, i int) int {
	if o.TotalSweeps <= 0 {
		return 0 // device default
	}
	if n < 1 {
		n = 1
	}
	s := o.TotalSweeps / n
	if i < o.TotalSweeps%n {
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}

// subTimings carries the per-phase durations of one partial-problem solve.
type subTimings struct {
	encode, anneal, decode time.Duration
}

// solveEncoded solves one already-materialised encoding on the device and
// returns the lowest-cost decoded solution. Because DSS folds every saving
// towards already selected plans into the local costs, the best (adjusted)
// local cost is exactly the marginal cost w.r.t. the current total solution,
// implementing BestIntSol of Algorithm 2.
func solveEncoded(ctx context.Context, dev solver.Solver, enc *encoding.MQOEncoding, runs, sweeps int, seed int64, warm []int8, parallelism int) (*mqo.Solution, int, subTimings, error) {
	var st subTimings
	if err := solver.CheckCapacity(dev, enc.Model); err != nil {
		return nil, 0, st, err
	}
	annealCtx, ph := obs.StartPhase(ctx, "anneal")
	res, err := dev.Solve(annealCtx, solver.Request{Model: enc.Model, Runs: runs, Sweeps: sweeps, Seed: seed, Parallelism: parallelism, Warm: warm})
	if err != nil {
		st.anneal = ph.Fail("device")
		return nil, 0, st, err
	}
	st.anneal = ph.End(obs.Event{Device: dev.Name(), Sweeps: res.Sweeps, N: enc.Model.NumVariables()})
	_, ph = obs.StartPhase(ctx, "decode")
	best, bestCost, repaired, err := bestDecoded(enc, res.Samples)
	st.decode = ph.End(obs.Event{Device: dev.Name(), N: len(res.Samples), Extra: float64(repaired), Value: bestCost})
	if err != nil {
		// Shape mismatches are pipeline bugs, not device outages: mark them
		// so the degradation paths re-raise instead of repairing them away.
		return nil, 0, st, &pipelineError{err}
	}
	if reg := obs.FromContext(ctx).Metrics(); reg != nil {
		reg.Counter("decode.samples").Add(float64(len(res.Samples)))
		reg.Counter("decode.repaired").Add(float64(repaired))
	}
	if best == nil {
		// The device "succeeded" with zero samples (e.g. cancelled before
		// its first sweep, or a fault-injected empty result).
		return nil, res.Sweeps, st, fmt.Errorf("core: device %s returned no samples", dev.Name())
	}
	return best, res.Sweeps, st, nil
}

// bestDecoded scans the samples in order and returns the lowest-cost decoded
// solution on enc.Problem (first strictly-better sample wins, exactly like
// decoding every sample and comparing costs), materialising a Solution only
// when a sample improves on the incumbent. Valid samples — the common case —
// are costed directly from the selection bitset with the same float-operation
// order as Solution.Cost; only constraint-violating samples go through the
// repair path. All per-sample scratch is reused, so the loop is
// allocation-free apart from the winning solutions. The third return is the
// number of samples that needed repair (the invalid-sample rate metric).
func bestDecoded(enc *encoding.MQOEncoding, samples []solver.Sample) (*mqo.Solution, float64, int, error) {
	p := enc.Problem
	n := p.NumPlans()
	selected := make([]bool, n)
	chosen := make([]bool, n)
	cur := mqo.NewSolution(p)
	var best *mqo.Solution
	bestCost := 0.0
	repaired := 0
	for _, s := range samples {
		if len(s.Assignment) != n {
			return nil, 0, repaired, fmt.Errorf("core: sample has %d variables, problem has %d plans", len(s.Assignment), n)
		}
		for i, x := range s.Assignment {
			selected[i] = x != 0
		}
		valid := true
		var c float64
		for q := 0; q < p.NumQueries(); q++ {
			first, count := mqo.Unassigned, 0
			for _, pl := range p.Plans(q) {
				if selected[pl] {
					if count == 0 {
						first = pl
					}
					count++
				}
			}
			if count != 1 {
				valid = false
				break
			}
			cur.Selected[q] = first
			c += p.Cost(first)
		}
		if valid {
			for _, sv := range p.Savings() {
				if selected[sv.P1] && selected[sv.P2] {
					c -= sv.Value
				}
			}
		} else {
			repaired++
			mqo.RepairInto(p, selected, cur, chosen)
			c = cur.CostBuffered(p, selected)
		}
		if best == nil || c < bestCost {
			if best == nil {
				best = cur.Clone()
			} else {
				copy(best.Selected, cur.Selected)
			}
			bestCost = c
		}
	}
	return best, bestCost, repaired, nil
}

// finalize assembles an Outcome, validating the solution against p.
func finalize(p *mqo.Problem, sol *mqo.Solution, strategy string, start time.Time) (*Outcome, error) {
	if err := sol.Validate(p); err != nil {
		return nil, fmt.Errorf("core: %s produced invalid solution: %w", strategy, err)
	}
	if !sol.Complete() {
		return nil, fmt.Errorf("core: %s produced incomplete solution", strategy)
	}
	return &Outcome{
		Solution: sol,
		Cost:     sol.Cost(p),
		Strategy: strategy,
		Elapsed:  time.Since(start),
	}, nil
}

func parallelism(o Options) int {
	return solver.Workers(o.Parallelism)
}

// splitWorkers divides a worker budget over n concurrent device solves,
// distributing the remainder one worker each over the first budget mod n
// solves (the partitionSweeps discipline) so the shares sum exactly to the
// budget whenever n <= workers. Shares that would round to zero become -1 —
// the solver.Workers encoding for "sequential" — and ForEachRun's worker
// cap keeps the goroutine total at the budget in that regime too. Results never depend on the split: per-run seeds are pre-derived.
func splitWorkers(workers, n int) []int {
	if n < 1 {
		return nil
	}
	share := make([]int, n)
	q, r := workers/n, workers%n
	for i := range share {
		w := q
		if i < r {
			w++
		}
		if w < 1 {
			w = -1 // sequential runs inside this solve
		}
		share[i] = w
	}
	return share
}
