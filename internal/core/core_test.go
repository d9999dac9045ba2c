package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/partition"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
)

// paperOptions returns a small-device configuration forcing the paper
// example to be split into two partitions of two queries each.
func paperOptions() Options {
	return Options{
		Device:   &da.Solver{CapacityVars: 4},
		Capacity: 4,
		Runs:     8,
		Seed:     1,
	}
}

func TestIncrementalRecoversPaperOptimum(t *testing.T) {
	// Example 4.7: processing part1 = (q1,q2) first and steering part2
	// with DSS recovers the global optimum of 25, while independent
	// processing yields 32.
	p := mqo.PaperExample()
	sub1, err := mqo.Extract(p, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := mqo.Extract(p, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := IncrementalOverSubProblems(context.Background(), p, []*mqo.SubProblem{sub1, sub2}, paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != 25 {
		t.Errorf("incremental cost = %v, want 25", out.Cost)
	}
	want := []int{1, 3, 4, 6} // (p2, p4, p5, p7)
	for q, pl := range out.Solution.Selected {
		if pl != want[q] {
			t.Errorf("selection = %v, want %v", out.Solution.Selected, want)
			break
		}
	}
	// DSS must have re-applied both discarded savings (s27 and s45 → 10).
	if out.ReappliedSavings != 10 {
		t.Errorf("reapplied savings = %v, want 10", out.ReappliedSavings)
	}
	if out.NumPartitions != 2 {
		t.Errorf("partitions = %d, want 2", out.NumPartitions)
	}
}

func TestParallelYieldsPaperSuboptimal(t *testing.T) {
	// Example 4.6: independent processing of the two partitions merges to
	// (p2,p4,p6,p8) at cost 32.
	p := mqo.PaperExample()
	opt := paperOptions()
	opt.PartitionSolver = &da.Solver{CapacityVars: 64}
	out, err := SolveParallel(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != 32 {
		t.Errorf("parallel cost = %v, want 32", out.Cost)
	}
	if out.NumPartitions != 2 {
		t.Errorf("partitions = %d, want 2", out.NumPartitions)
	}
	if out.DiscardedSavings != 10 {
		t.Errorf("discarded = %v, want 10", out.DiscardedSavings)
	}
}

func TestIncrementalFullPipelineBeatsParallel(t *testing.T) {
	// End-to-end (partitioning on the annealer + DSS): incremental must
	// reach 25 when the annealer-found cut is the documented one, or at
	// worst match parallel.
	p := mqo.PaperExample()
	opt := paperOptions()
	opt.PartitionSolver = &da.Solver{CapacityVars: 64}
	inc, err := SolveIncremental(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveParallel(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Cost > par.Cost {
		t.Errorf("incremental (%v) worse than parallel (%v)", inc.Cost, par.Cost)
	}
	if inc.Cost != 25 && inc.Cost != 32 {
		t.Errorf("incremental cost = %v, want 25 (or 32 under the mirrored processing order)", inc.Cost)
	}
}

func TestDefaultStrategyOnSmallDevice(t *testing.T) {
	// 8 plans on a 4-variable DA: SolveDefault must route through the
	// vendor decomposition and still produce a valid solution.
	p := mqo.PaperExample()
	out, err := SolveDefault(context.Background(), p, Options{
		Device: &da.Solver{CapacityVars: 4},
		Runs:   4,
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Solution.Validate(p); err != nil {
		t.Fatalf("default solution invalid: %v", err)
	}
	if out.Cost > 36 {
		t.Errorf("default cost = %v, want ≤ 36", out.Cost)
	}
}

func TestDefaultStrategyRequiresLargeSolver(t *testing.T) {
	p := mqo.PaperExample()
	_, err := SolveDefault(context.Background(), p, Options{
		Device: &capacityOnlySolver{inner: &sa.Solver{}},
		Seed:   1,
	})
	if err == nil {
		t.Error("SolveDefault accepted capacity-limited device without vendor decomposition")
	}
}

// capacityOnlySolver wraps SA with an artificial 4-variable capacity and no
// SolveLarge, to exercise the error path.
type capacityOnlySolver struct{ inner *sa.Solver }

func (c *capacityOnlySolver) Name() string  { return "capped-sa" }
func (c *capacityOnlySolver) Capacity() int { return 4 }
func (c *capacityOnlySolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	return c.inner.Solve(ctx, req)
}

func TestWithinCapacitySolvesDirectly(t *testing.T) {
	p := mqo.PaperExample()
	for _, solve := range []func(context.Context, *mqo.Problem, Options) (*Outcome, error){
		SolveIncremental, SolveParallel, SolveDefault,
	} {
		out, err := solve(context.Background(), p, Options{
			Device: &da.Solver{CapacityVars: 64},
			Runs:   8,
			Seed:   3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.NumPartitions != 1 {
			t.Errorf("%s: partitions = %d, want 1", out.Strategy, out.NumPartitions)
		}
		if out.Cost != 25 {
			t.Errorf("%s: cost = %v, want 25 (problem fits device)", out.Strategy, out.Cost)
		}
	}
}

func TestIncrementalOnRandomCommunityInstance(t *testing.T) {
	// A structured instance with two strong communities: incremental must
	// produce a valid complete solution no worse than parallel.
	rng := rand.New(rand.NewSource(9))
	p := communityProblem(rng, 12, 3)
	opt := Options{
		Device:      &da.Solver{CapacityVars: 18},
		Capacity:    18,
		Runs:        6,
		TotalSweeps: 8000,
		Seed:        4,
	}
	inc, err := SolveIncremental(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveParallel(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Cost > par.Cost+1e-9 {
		t.Errorf("incremental (%v) worse than parallel (%v) on community instance", inc.Cost, par.Cost)
	}
	if !inc.Solution.Complete() || !par.Solution.Complete() {
		t.Error("incomplete solutions")
	}
}

// communityProblem builds an instance with two dense communities and sparse
// cross links.
func communityProblem(rng *rand.Rand, queries, ppq int) *mqo.Problem {
	costs := make([][]float64, queries)
	for q := range costs {
		cs := make([]float64, ppq)
		for i := range cs {
			cs[i] = 20 + rng.Float64()*20
		}
		costs[q] = cs
	}
	community := func(q int) int { return q * 2 / queries }
	var savings []mqo.Saving
	for q1 := 0; q1 < queries; q1++ {
		for q2 := q1 + 1; q2 < queries; q2++ {
			density := 0.05
			if community(q1) == community(q2) {
				density = 0.6
			}
			for i := 0; i < ppq; i++ {
				for j := 0; j < ppq; j++ {
					if rng.Float64() < density {
						savings = append(savings, mqo.Saving{
							P1:    q1*ppq + i,
							P2:    q2*ppq + j,
							Value: 1 + rng.Float64()*9,
						})
					}
				}
			}
		}
	}
	p, err := mqo.NewProblem(costs, savings)
	if err != nil {
		panic(err)
	}
	return p
}

// budgetRecorder forwards every request to inner and records its variable
// count and sweep budget.
type budgetRecorder struct {
	inner solver.Solver
	mu    sync.Mutex
	calls [][2]int // {variables, sweeps}
}

func (b *budgetRecorder) Name() string  { return b.inner.Name() }
func (b *budgetRecorder) Capacity() int { return b.inner.Capacity() }
func (b *budgetRecorder) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	b.mu.Lock()
	b.calls = append(b.calls, [2]int{req.Model.NumVariables(), req.Sweeps})
	b.mu.Unlock()
	return b.inner.Solve(ctx, req)
}

// TestBisectionBudgetScalesWithGraph pins the partitioning budget: a
// bisection of an n-node graph anneals ⌈TotalSweeps·n/NumPlans⌉ steps per
// run, TotalSweeps 0 leaves every bisection at the device default, and
// Refit's re-bisections follow the same rule.
func TestBisectionBudgetScalesWithGraph(t *testing.T) {
	p := cacheTestProblem(t) // 32 queries × 3 plans
	want := func(total, n int) int {
		if total == 0 {
			return 0
		}
		return (total*n + p.NumPlans() - 1) / p.NumPlans()
	}
	check := func(t *testing.T, rec *budgetRecorder, total int) {
		t.Helper()
		if len(rec.calls) < 2 {
			t.Fatalf("%d bisections, want at least 2", len(rec.calls))
		}
		for _, c := range rec.calls {
			if c[1] != want(total, c[0]) {
				t.Errorf("TotalSweeps %d: bisection of %d nodes got %d sweeps, want %d", total, c[0], c[1], want(total, c[0]))
			}
		}
	}
	for _, total := range []int{0, 600, 1001} {
		rec := &budgetRecorder{inner: &da.Solver{}}
		opt := Options{Device: &da.Solver{CapacityVars: 40}, PartitionSolver: rec, Runs: 2, TotalSweeps: total, Seed: 5}
		if _, err := SolveIncremental(context.Background(), p, opt); err != nil {
			t.Fatal(err)
		}
		check(t, rec, total)
	}
	// Two 48-plan halves both outgrow the 40-variable device.
	rec := &budgetRecorder{inner: &da.Solver{}}
	opt := Options{Device: &da.Solver{CapacityVars: 40}, PartitionSolver: rec, Runs: 2, TotalSweeps: 1001, Seed: 5}
	var lo, hi []int
	for q := 0; q < p.NumQueries(); q++ {
		if q < p.NumQueries()/2 {
			lo = append(lo, q)
		} else {
			hi = append(hi, q)
		}
	}
	if _, err := partition.Refit(context.Background(), p, [][]int{lo, hi}, opt.partitionOptions()); err != nil {
		t.Fatal(err)
	}
	check(t, rec, 1001)
}
