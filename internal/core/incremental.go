package core

import (
	"context"
	"fmt"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/partition"
	"incranneal/internal/solver"
)

// subLabel names the i-th partial problem in trace events ("sub00",
// "sub01", ...). Only built when a sink is enabled.
func subLabel(i int) string { return fmt.Sprintf("sub%02d", i) }

// SolveIncremental runs the paper's incremental optimisation with dynamic
// search steering (Algorithms 2 and 3). The problem is partitioned to the
// device capacity; partial problems are then solved, each encoded *after*
// DSS has folded the savings towards already-selected plans into its plan
// costs, and the best partial solution w.r.t. the incumbent total solution
// is merged in.
//
// The partial problems are scheduled over the DSS dependency DAG (see
// dag.go): sub-problems sharing no discarded savings solve concurrently,
// bounded by Options.Parallelism, with results bit-identical to the
// strictly sequential chain of Algorithm 2 — which is the schedule a single
// worker (Parallelism -1) runs.
//
// Problems that already fit the device skip partitioning and are solved
// directly; the strategies then coincide.
func SolveIncremental(ctx context.Context, p *mqo.Problem, opt Options) (*Outcome, error) {
	return solvePartitioned(ctx, p, opt, StrategyIncremental)
}

// SolveParallel partitions the problem and optimises every partial problem
// independently and concurrently — the naive processing option of
// Sec. 4.2. Merging the partial solutions yields a complete solution whose
// cost still counts whatever cross-partition savings happen to apply
// (Example 4.6), but the optimisation itself is blind to them, which is
// what the incremental strategy improves on. It is the incremental pipeline
// with DSS off: the dependency graph is edgeless, so every partial problem
// solves in one wave.
func SolveParallel(ctx context.Context, p *mqo.Problem, opt Options) (*Outcome, error) {
	opt.DisableDSS = true
	return solvePartitioned(ctx, p, opt, StrategyParallel)
}

// solvePartitioned is the pipeline behind both partitioned strategies:
// partition (or refit a cached partitioning, or rebuild a checkpointed
// one), then run the wave executor. strategy names the Outcome.
func solvePartitioned(ctx context.Context, p *mqo.Problem, opt Options, strategy string) (*Outcome, error) {
	start := time.Now()
	if !opt.needsPartitioning(p) {
		return solveWhole(ctx, p, opt, strategy, start)
	}
	var cr *cacheRun
	if opt.Resume == nil {
		// A resumed solve skips the cache entirely: its partitioning comes
		// from the checkpoint, and warm starts the interrupted run did not
		// have would break resume bit-identity.
		cr = newCacheRun(p, opt)
	}
	partCtx, ph := obs.StartPhase(ctx, "partition")
	source := "fresh"
	var part *partition.Result
	var err error
	if opt.Resume != nil {
		// Resume: refit the checkpointed partitioning. Every set already
		// fits the capacity and the sets are in partitioning order, so Refit
		// bisects nothing and re-extracts the interrupted run's
		// sub-problems exactly.
		source = "resume"
		part, err = partition.Refit(partCtx, p, opt.Resume.QuerySets, opt.partitionOptions())
		if err != nil {
			ph.Fail("resume")
			return nil, err
		}
	} else if cr != nil && cr.hit != nil {
		// Structure hit: refit the cached partitioning instead of
		// re-bisecting. Refit validates coverage and only re-bisects sets
		// the capacity no longer admits, so a plain recurrence skips the
		// annealer-backed recursion entirely.
		source = "refit"
		part, err = partition.Refit(partCtx, p, cr.hit.QuerySets, opt.partitionOptions())
		if err != nil {
			// A cached partitioning that fails to refit (fingerprint
			// collision, corrupt entry) never fails the solve: drop it and
			// partition from scratch.
			opt.Cache.Invalidate(p)
			cr.demote()
			source, part = "fresh", nil
		}
	}
	if part == nil {
		part, err = opt.partitionProblem(partCtx, p)
		if err != nil {
			ph.Fail("partition")
			return nil, err
		}
	}
	partElapsed := ph.Attr("source", source).End(obs.Event{
		N: len(part.SubProblems), Value: part.DiscardedSavings, Extra: float64(part.Bisections),
	})
	if cr != nil {
		cr.querySets = part.QuerySets
	}
	out, err := incrementalOverSubProblems(ctx, p, part.SubProblems, opt, cr, strategy)
	if err != nil {
		return nil, err
	}
	out.DiscardedSavings = part.DiscardedSavings
	out.Timings.Partition = partElapsed
	out.Elapsed = time.Since(start)
	return out, nil
}

// IncrementalOverSubProblems runs the incremental optimisation phase over
// an already-partitioned problem. It is the optimisation phase of
// SolveIncremental, exposed for callers that control partitioning
// themselves. The sub-problems' adjusted costs are consumed (DSS mutates
// them); do not reuse subs across calls.
//
// Encoding work is organised around prepared skeletons: every sub-problem's
// quadratic structure is prepared once, up front and in parallel on the
// run-level worker pool, because DSS only ever mutates plan costs (linear
// coefficients and, through the penalty A, the clique weights — never the
// term structure). Each partial problem then materialises its model from
// the skeleton just before it anneals, after every DSS pass that adjusts
// its costs, in an "encode" phase of its own. Results are bit-identical to
// re-encoding every sub-problem from scratch after each DSS pass, at any
// Parallelism.
func IncrementalOverSubProblems(ctx context.Context, p *mqo.Problem, subs []*mqo.SubProblem, opt Options) (*Outcome, error) {
	return incrementalOverSubProblems(ctx, p, subs, opt, nil, StrategyIncremental)
}

// incrementalOverSubProblems is IncrementalOverSubProblems with the solve's
// cache interaction (nil when no cache is configured or the caller owns
// partitioning) and strategy name threaded through.
func incrementalOverSubProblems(ctx context.Context, p *mqo.Problem, subs []*mqo.SubProblem, opt Options, cr *cacheRun, strategy string) (*Outcome, error) {
	start := time.Now()
	ttlSol := mqo.NewSolution(p)
	var tm PhaseTimings
	// pending[i] tracks the not-yet-applied discarded savings of subs[i];
	// DSS consumes a saving when it adjusts a plan cost, so the repeated
	// passes of Algorithm 3 never double-apply it.
	pending := make([][]mqo.Saving, len(subs))
	for i, sub := range subs {
		pending[i] = append([]mqo.Saving(nil), sub.Discarded...)
	}
	// Checkpoint recording and resume replay (see checkpoint.go). Both are
	// nil-safe no-ops on ordinary solves.
	rec := newCkptRecorder(p, subs, opt)
	rs, err := newResumeState(p, subs, opt)
	if err != nil {
		return nil, err
	}
	_, ph := obs.StartPhase(ctx, "encode")
	preps := make([]*encoding.PreparedMQO, len(subs))
	prepErrs := make([]error, len(subs))
	solver.ForEachRun(len(subs), parallelism(opt), func(i int) {
		// On a structure hit, rebinding a pooled skeleton replaces the
		// whole PrepareMQO build with an O(terms) reweight of the cached
		// term structure.
		if pp := cr.takeSkeleton(subs[i].Local); pp != nil {
			preps[i] = pp
			return
		}
		preps[i], prepErrs[i] = encoding.PrepareMQO(subs[i].Local)
	})
	for _, err := range prepErrs {
		if err != nil {
			return nil, err
		}
	}
	// Warm assignments project the cached incumbent into each sub-problem's
	// local numbering; nil entries (no cache, miss, drift out of bounds)
	// keep the device's historical fully-random seeding.
	warms := make([][]int8, len(subs))
	for i, sub := range subs {
		warms[i] = cr.warmFor(sub)
	}
	tm.Encode = ph.End(obs.Event{N: len(subs)})
	_, ph = obs.StartPhase(ctx, "dag")
	dag := buildDSSDAG(p, subs, opt.DisableDSS)
	ph.End(obs.Event{N: dag.edges, Run: len(dag.waves), Value: dag.density, Extra: float64(dag.width)})
	sink := obs.FromContext(ctx)
	if reg := sink.Metrics(); reg != nil {
		reg.Gauge("dag.waves").Set(float64(len(dag.waves)))
		reg.Gauge("dag.width").Set(float64(dag.width))
		// With wave-barrier scheduling the critical path in partial
		// problems equals the wave count; kept as its own gauge so
		// dashboards survive a move to event-driven scheduling.
		reg.Gauge("dag.critical_path").Set(float64(len(dag.waves)))
	}
	sweeps, reapplied, degs, err := runWaves(ctx, p, subs, preps, warms, dag, pending, ttlSol, &tm, opt, rec, rs)
	if err != nil {
		return nil, err
	}
	if reg := sink.Metrics(); reg != nil {
		var es encoding.EncodingStats
		for _, pp := range preps {
			s := pp.Stats()
			es.Materialised += s.Materialised
			es.Reweighted += s.Reweighted
		}
		reg.Counter("encode.materialise").Add(float64(es.Materialised))
		reg.Counter("encode.reweight").Add(float64(es.Reweighted))
	}
	out, err := finalize(p, ttlSol, strategy, start)
	if err != nil {
		return nil, err
	}
	out.NumPartitions = len(subs)
	out.ReappliedSavings = reapplied
	out.Sweeps = sweeps
	out.Timings = tm
	out.Degradations = degs
	out.DAG = dag.stats()
	cr.commit(p, out, preps, sink)
	return out, nil
}

// solveWhole solves an unpartitioned problem directly on the device.
func solveWhole(ctx context.Context, p *mqo.Problem, opt Options, strategy string, start time.Time) (*Outcome, error) {
	var tm PhaseTimings
	_, ph := obs.StartPhase(ctx, "encode")
	pp, err := encoding.PrepareMQO(p)
	if err != nil {
		return nil, err
	}
	enc := pp.Encoding()
	tm.Encode = ph.End(obs.Event{N: 1})
	best, performed, st, err := solveEncoded(ctx, opt.Device, enc, opt.Runs, opt.partitionSweeps(1, 0), opt.Seed, nil, opt.Parallelism)
	var degs []Degradation
	if err != nil {
		if opt.FailFast || isPipelineError(err) {
			return nil, err
		}
		var d Degradation
		best, d = degrade(ctx, p, -1, opt.Device.Name(), err)
		degs = append(degs, d)
	}
	tm.Anneal, tm.Decode = st.anneal, st.decode
	out, err := finalize(p, best, strategy, start)
	if err != nil {
		return nil, err
	}
	out.NumPartitions = 1
	out.Sweeps = performed
	out.Timings = tm
	out.Degradations = degs
	return out, nil
}
