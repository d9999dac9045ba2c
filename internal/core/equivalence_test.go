package core

import (
	"context"
	"fmt"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

// referenceIncremental is Algorithm 2 verbatim: the strictly sequential
// chain, with every partial problem re-encoded from scratch with EncodeMQO
// after each DSS pass and every sample decoded into a fresh Solution. It
// exists purely as the behavioural reference the wave executor must
// reproduce bit for bit: the returned Outcome carries the solution, its
// cost, the performed sweeps and the re-applied savings.
func referenceIncremental(ctx context.Context, t *testing.T, p *mqo.Problem, subs []*mqo.SubProblem, opt Options) *Outcome {
	t.Helper()
	ttl := mqo.NewSolution(p)
	var sweeps int
	var reapplied float64
	pending := make([][]mqo.Saving, len(subs))
	for i, sub := range subs {
		pending[i] = append([]mqo.Saving(nil), sub.Discarded...)
	}
	for i, sub := range subs {
		enc, err := encoding.EncodeMQO(sub.Local)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Device.Solve(ctx, solver.Request{
			Model: enc.Model, Runs: opt.Runs, Sweeps: opt.partitionSweeps(len(subs), i),
			Seed: opt.Seed + int64(1000+i), Parallelism: opt.Parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		sweeps += res.Sweeps
		var best *mqo.Solution
		bestCost := 0.0
		for _, s := range res.Samples {
			sol, err := enc.Decode(s.Assignment)
			if err != nil {
				t.Fatal(err)
			}
			if c := sol.Cost(sub.Local); best == nil || c < bestCost {
				best, bestCost = sol, c
			}
		}
		global, err := sub.ToGlobal(p, best)
		if err != nil {
			t.Fatal(err)
		}
		if err := ttl.Merge(global); err != nil {
			t.Fatal(err)
		}
		if i+1 < len(subs) && !opt.DisableDSS {
			// Rebuild the selected-plan set from scratch every pass — the
			// quadratic behaviour the pipeline's incrementally maintained
			// set must reproduce.
			selected := make([]bool, p.NumPlans())
			for _, pl := range ttl.Selected {
				if pl != mqo.Unassigned {
					selected[pl] = true
				}
			}
			reapplied += dss(selected, subs[i+1:], pending[i+1:])
		}
	}
	return &Outcome{Solution: ttl, Cost: ttl.Cost(p), Sweeps: sweeps, ReappliedSavings: reapplied}
}

// dss implements Algorithm 3 for the reference chain: for every
// still-unsolved partial problem and every pending discarded saving, when
// one endpoint has been selected into the intermediate solution and the
// other endpoint is a plan of the unsolved problem, that plan's cost is
// reduced by the saving's value and the saving is consumed. Returns the
// re-applied magnitude.
func dss(selected []bool, remaining []*mqo.SubProblem, pending [][]mqo.Saving) float64 {
	var reapplied float64
	for i, sub := range remaining {
		kept := pending[i][:0]
		for _, s := range pending[i] {
			plan, selPlan := -1, -1
			if _, in := sub.LocalPlan(s.P1); in {
				plan, selPlan = s.P1, s.P2
			} else if _, in := sub.LocalPlan(s.P2); in {
				plan, selPlan = s.P2, s.P1
			}
			if plan >= 0 && selected[selPlan] {
				sub.AdjustCost(plan, s.Value)
				reapplied += s.Value
				continue
			}
			kept = append(kept, s)
		}
		pending[i] = kept
	}
	return reapplied
}

// assertMatchesReference compares an executor outcome with the reference
// chain: cost, plan selections, sweeps and re-applied savings.
func assertMatchesReference(t *testing.T, label string, ref, out *Outcome) {
	t.Helper()
	if out.Cost != ref.Cost {
		t.Errorf("%s: cost %v, reference %v", label, out.Cost, ref.Cost)
	}
	if out.Sweeps != ref.Sweeps {
		t.Errorf("%s: sweeps %d, reference %d", label, out.Sweeps, ref.Sweeps)
	}
	if out.ReappliedSavings != ref.ReappliedSavings {
		t.Errorf("%s: reapplied %v, reference %v", label, out.ReappliedSavings, ref.ReappliedSavings)
	}
	for q, pl := range out.Solution.Selected {
		if pl != ref.Solution.Selected[q] {
			t.Errorf("%s: query %d selects plan %d, reference %d", label, q, pl, ref.Solution.Selected[q])
			break
		}
	}
}

// TestIncrementalPipelineMatchesReference pins the tentpole's equivalence
// guarantee: the prepared-skeleton pipeline (up-front PrepareMQO, in-place
// reweights, speculative encode/solve overlap, buffer-reusing decode) must
// reproduce the from-scratch re-encoding loop exactly — same cost, same plan
// selections — at every Parallelism setting.
func TestIncrementalPipelineMatchesReference(t *testing.T) {
	ctx := context.Background()
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 48, PPQ: 3, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.8, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := in.Problem
	opt := Options{
		Device:      &da.Solver{CapacityVars: 40},
		Capacity:    40,
		Runs:        4,
		TotalSweeps: 1000,
		Seed:        17,
		Parallelism: -1,
	}
	part, err := opt.partitionProblem(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.SubProblems) < 2 {
		t.Fatalf("instance not partitioned (%d sub-problems); equivalence test needs the incremental path", len(part.SubProblems))
	}
	ref := referenceIncremental(ctx, t, p, part.SubProblems, opt)
	for _, par := range []int{-1, 1, 4} {
		opt := opt
		opt.Parallelism = par
		// DSS consumed the reference partition's costs; re-partition fresh.
		// Partitioning is deterministic, so the query sets are identical.
		part, err := opt.partitionProblem(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		out, err := IncrementalOverSubProblems(ctx, p, part.SubProblems, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, fmt.Sprintf("Parallelism=%d", par), ref, out)
	}
	// The full pipeline (partitioning included) must also be invariant
	// across Parallelism settings.
	var firstCost float64
	for i, par := range []int{-1, 2, 0} {
		opt := opt
		opt.Parallelism = par
		out, err := SolveIncremental(ctx, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstCost = out.Cost
		} else if out.Cost != firstCost {
			t.Errorf("SolveIncremental at Parallelism=%d: cost %v, want %v", par, out.Cost, firstCost)
		}
	}
}

// TestParallelMatchesReference pins the parallel strategy to the reference
// chain without DSS: with nothing re-applied, solving the partial problems
// one after another and solving them in one wave must agree bit for bit.
func TestParallelMatchesReference(t *testing.T) {
	ctx := context.Background()
	p := checkpointTestProblem(t)
	opt := checkpointTestOptions()
	opt.DisableDSS = true
	part, err := opt.partitionProblem(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.SubProblems) < 2 {
		t.Fatalf("instance not partitioned (%d sub-problems)", len(part.SubProblems))
	}
	ref := referenceIncremental(ctx, t, p, part.SubProblems, opt)
	for _, par := range []int{-1, 1, 4} {
		o := checkpointTestOptions()
		o.Parallelism = par
		out, err := SolveParallel(ctx, p, o)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, fmt.Sprintf("Parallelism=%d", par), ref, out)
		if out.DAG == nil || out.DAG.Edges != 0 || out.DAG.Waves != 1 {
			t.Errorf("Parallelism=%d: DAG %+v, want one edgeless wave", par, out.DAG)
		}
	}
}

// TestSolveWholeMatchesFreshEncode checks the unpartitioned path: prepared
// encodings and the buffer-reusing decode must give the same outcome as the
// map-backed encode with per-sample decoding.
func TestSolveWholeMatchesFreshEncode(t *testing.T) {
	ctx := context.Background()
	p := mqo.PaperExample()
	opt := Options{Device: &da.Solver{CapacityVars: 64}, Runs: 8, TotalSweeps: 500, Seed: 3, Parallelism: -1}
	out, err := SolveIncremental(ctx, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Device.Solve(ctx, solver.Request{Model: enc.Model, Runs: opt.Runs, Sweeps: opt.TotalSweeps, Seed: opt.Seed, Parallelism: opt.Parallelism})
	if err != nil {
		t.Fatal(err)
	}
	var best *mqo.Solution
	bestCost := 0.0
	for _, s := range res.Samples {
		sol, err := enc.Decode(s.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if c := sol.Cost(p); best == nil || c < bestCost {
			best, bestCost = sol, c
		}
	}
	if out.Cost != bestCost {
		t.Errorf("pipeline cost %v, fresh-encode reference %v", out.Cost, bestCost)
	}
	for q, pl := range out.Solution.Selected {
		if pl != best.Selected[q] {
			t.Errorf("query %d selects plan %d, reference %d", q, pl, best.Selected[q])
			break
		}
	}
}
