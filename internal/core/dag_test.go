package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

// dagTestInstance builds the canonical sparse-DAG fixture: 8 communities in
// the stride topology (0,4) (1,5) (2,6) (3,7), so the DSS dependency DAG
// has 4 edges, density 4/28, two waves of width 4.
func dagTestInstance(t testing.TB) *workload.DAGInstance {
	t.Helper()
	in, err := workload.GenerateDAGSweep(workload.DAGSweepConfig{
		Queries: 48, PPQ: 3, Communities: 8,
		IntraDensity: 0.4, CrossDensity: 0.25, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func dagTestOptions() Options {
	return Options{
		Device:      &da.Solver{CapacityVars: 64},
		Runs:        4,
		TotalSweeps: 2000,
		Seed:        17,
	}
}

// freshSubs re-extracts the partial problems; DSS consumes adjusted costs,
// so every solve needs its own set.
func freshSubs(t testing.TB, in *workload.DAGInstance) []*mqo.SubProblem {
	t.Helper()
	subs, err := in.SubProblems()
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// TestBuildDSSDAG pins the graph construction on a handcrafted instance:
// edges point low→high exactly where discarded savings couple two subs, and
// the wave decomposition is the topological depth grouping.
func TestBuildDSSDAG(t *testing.T) {
	// 6 queries x 1 plan; subs {0,1} {2,3} {4,5}. Savings couple sub0 with
	// both others; sub1 and sub2 are independent of each other.
	costs := make([][]float64, 6)
	for i := range costs {
		costs[i] = []float64{10}
	}
	p, err := mqo.NewProblem(costs, []mqo.Saving{
		{P1: 0, P2: 2, Value: 1},
		{P1: 0, P2: 4, Value: 1},
		{P1: 1, P2: 4, Value: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var subs []*mqo.SubProblem
	for _, qs := range [][]int{{0, 1}, {2, 3}, {4, 5}} {
		sub, err := mqo.Extract(p, qs)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	d := buildDSSDAG(p, subs, false)
	if d.edges != 2 {
		t.Errorf("edges = %d, want 2", d.edges)
	}
	wantPreds := [][]int{nil, {0}, {0}}
	for j, want := range wantPreds {
		if fmt.Sprint(d.preds[j]) != fmt.Sprint(want) {
			t.Errorf("preds[%d] = %v, want %v", j, d.preds[j], want)
		}
	}
	if len(d.waves) != 2 || fmt.Sprint(d.waves[0]) != "[0]" || fmt.Sprint(d.waves[1]) != "[1 2]" {
		t.Errorf("waves = %v, want [[0] [1 2]]", d.waves)
	}
	if d.width != 2 {
		t.Errorf("width = %d, want 2", d.width)
	}
	if want := 2.0 / 3.0; d.density != want {
		t.Errorf("density = %v, want %v", d.density, want)
	}
	// The DisableDSS ablation schedules everything in one maximally wide
	// wave: no savings will be re-applied, so there are no dependencies.
	e := buildDSSDAG(p, subs, true)
	if e.edges != 0 || len(e.waves) != 1 || len(e.waves[0]) != 3 {
		t.Errorf("edgeless DAG = edges %d waves %v, want 0 edges, one wave of 3", e.edges, e.waves)
	}
}

// TestDAGMatchesSequentialSparse is the executor's equivalence guarantee:
// on a sparse dependency DAG the wave schedule must reproduce the
// sequential chain of Algorithm 2 bit for bit — cost, plan selections,
// re-applied savings and sweep totals — at every Parallelism setting.
func TestDAGMatchesSequentialSparse(t *testing.T) {
	ctx := context.Background()
	in := dagTestInstance(t)
	opt := dagTestOptions()
	opt.Parallelism = -1
	ref := referenceIncremental(ctx, t, in.Problem, freshSubs(t, in), opt)
	if ref.ReappliedSavings <= 0 {
		t.Fatal("fixture re-applies no savings; the equivalence test would be vacuous")
	}

	for _, par := range []int{-1, 1, 4, runtime.GOMAXPROCS(0)} {
		o := opt
		o.Parallelism = par
		out, err := IncrementalOverSubProblems(ctx, in.Problem, freshSubs(t, in), o)
		if err != nil {
			t.Fatal(err)
		}
		if out.DAG == nil {
			t.Fatalf("Parallelism=%d: no DAG stats", par)
		}
		if out.DAG.Nodes != 8 || out.DAG.Edges != 4 || out.DAG.Waves != 2 || out.DAG.Width != 4 {
			t.Errorf("Parallelism=%d: DAG stats %+v, want 8 nodes, 4 edges, 2 waves, width 4", par, out.DAG)
		}
		assertMatchesReference(t, fmt.Sprintf("Parallelism=%d", par), ref, out)
	}
}

// TestDAGDenseFallback pins the dense case: a complete dependency graph
// serialises into one singleton wave per partial problem, and the executor
// must still match the reference chain exactly — multi-predecessor joins
// included.
func TestDAGDenseFallback(t *testing.T) {
	ctx := context.Background()
	in, err := workload.GenerateDAGSweep(workload.DAGSweepConfig{
		Queries: 24, PPQ: 3, Communities: 4,
		IntraDensity: 0.4, CrossDensity: 0.3,
		CommunityPairs: [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := dagTestOptions()
	opt.Parallelism = -1
	ref := referenceIncremental(ctx, t, in.Problem, freshSubs(t, in), opt)

	for _, par := range []int{-1, 4} {
		o := opt
		o.Parallelism = par
		out, err := IncrementalOverSubProblems(ctx, in.Problem, freshSubs(t, in), o)
		if err != nil {
			t.Fatal(err)
		}
		if out.DAG == nil || out.DAG.Density != 1 || out.DAG.Waves != 4 || out.DAG.Width != 1 {
			t.Fatalf("Parallelism=%d: complete graph DAG %+v, want density 1, 4 singleton waves", par, out.DAG)
		}
		assertMatchesReference(t, fmt.Sprintf("Parallelism=%d", par), ref, out)
	}
}

// seedFailSolver fails exactly the solve whose request seed matches. The
// incremental phase derives a unique seed per partial problem, so the
// failure hits one specific sub-problem no matter how the scheduler
// interleaves dispatches — a deterministic fault under concurrency, unlike
// faultinject's counter-based schedules.
type seedFailSolver struct {
	solver.Solver
	failSeed int64
}

func (s *seedFailSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	if req.Seed == s.failSeed {
		return nil, errors.New("injected: device offline for this partial problem")
	}
	return s.Solver.Solve(ctx, req)
}

// TestDAGFaultDeterminism pins graceful degradation under the wave
// schedule: a terminal failure of one mid-wave partial problem degrades
// exactly that sub, and the outcome is bit-identical across Parallelism
// settings, the one-worker chain included (the greedy repair runs on the
// same DSS-adjusted costs either way).
func TestDAGFaultDeterminism(t *testing.T) {
	ctx := context.Background()
	in := dagTestInstance(t)
	opt := dagTestOptions()
	const target = 5 // wave-1 node (pred: sub 1) in the stride topology
	opt.Device = &seedFailSolver{
		Solver:   &da.Solver{CapacityVars: 64},
		failSeed: opt.Seed + int64(1000+target),
	}

	var ref *Outcome
	for _, tc := range []struct {
		name string
		par  int
	}{
		{"seq", -1},
		{"dag-par1", 1},
		{"dag-par4", 4},
		{"dag-par4-again", 4},
		{"dag-par0", 0},
	} {
		o := opt
		o.Parallelism = tc.par
		out, err := IncrementalOverSubProblems(ctx, in.Problem, freshSubs(t, in), o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(out.Degradations) != 1 || out.Degradations[0].Sub != target {
			t.Fatalf("%s: degradations = %+v, want exactly sub %d", tc.name, out.Degradations, target)
		}
		if ref == nil {
			ref = out
			continue
		}
		if out.Cost != ref.Cost {
			t.Errorf("%s: cost %v, want %v", tc.name, out.Cost, ref.Cost)
		}
		if out.ReappliedSavings != ref.ReappliedSavings {
			t.Errorf("%s: reapplied %v, want %v", tc.name, out.ReappliedSavings, ref.ReappliedSavings)
		}
		for q, pl := range out.Solution.Selected {
			if pl != ref.Solution.Selected[q] {
				t.Errorf("%s: query %d selects plan %d, want %d", tc.name, q, pl, ref.Solution.Selected[q])
				break
			}
		}
	}

	// FailFast still aborts, whichever wave the failure lands in.
	o := opt
	o.Parallelism = 4
	o.FailFast = true
	if _, err := IncrementalOverSubProblems(ctx, in.Problem, freshSubs(t, in), o); err == nil {
		t.Fatal("FailFast swallowed a terminal mid-wave failure")
	}
}

// TestDAGObsEvents verifies the scheduler's instrumentation: the dag/wave/
// join event stream, per-sub merge events, and the dag.* gauges — and that
// observing the solve does not perturb its result.
func TestDAGObsEvents(t *testing.T) {
	ctx := context.Background()
	in := dagTestInstance(t)
	opt := dagTestOptions()
	opt.Parallelism = 4

	bare, err := IncrementalOverSubProblems(ctx, in.Problem, freshSubs(t, in), opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := obs.NewCollector(reg)
	out, err := IncrementalOverSubProblems(obs.NewContext(ctx, sink), in.Problem, freshSubs(t, in), opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != bare.Cost {
		t.Errorf("observed cost %v, unobserved %v", out.Cost, bare.Cost)
	}
	counts := map[string]int{}
	var dagEvent obs.Event
	for _, e := range sink.Events() {
		counts[e.Name]++
		if e.Name == "dag" {
			dagEvent = e
		}
	}
	if counts["dag"] != 1 {
		t.Errorf("dag events = %d, want one", counts["dag"])
	}
	if dagEvent.N != out.DAG.Edges || dagEvent.Run != out.DAG.Waves {
		t.Errorf("dag event N/Run = %d/%d, want %d/%d", dagEvent.N, dagEvent.Run, out.DAG.Edges, out.DAG.Waves)
	}
	if counts["wave"] != out.DAG.Waves {
		t.Errorf("wave events = %d, want %d", counts["wave"], out.DAG.Waves)
	}
	if counts["merge"] != out.NumPartitions {
		t.Errorf("merge events = %d, want %d", counts["merge"], out.NumPartitions)
	}
	if out.ReappliedSavings > 0 && counts["join"] == 0 {
		t.Error("savings re-applied but no join events")
	}
	if got := reg.Gauge("dag.waves").Value(); got != float64(out.DAG.Waves) {
		t.Errorf("dag.waves gauge = %v, want %d", got, out.DAG.Waves)
	}
	if got := reg.Gauge("dag.width").Value(); got != float64(out.DAG.Width) {
		t.Errorf("dag.width gauge = %v, want %d", got, out.DAG.Width)
	}
	if got := reg.Gauge("dag.critical_path").Value(); got != float64(out.DAG.Waves) {
		t.Errorf("dag.critical_path gauge = %v, want %d", got, out.DAG.Waves)
	}
}

// TestSplitWorkers pins the two-level worker-budget split: remainders are
// distributed like partitionSweeps (first budget mod n shares get one
// extra), shares sum exactly to the budget when it covers every solve, and
// starved shares become the sequential marker instead of zero.
func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		workers, n int
		want       []int
	}{
		{6, 4, []int{2, 2, 1, 1}},
		{8, 2, []int{4, 4}},
		{5, 4, []int{2, 1, 1, 1}},
		{4, 4, []int{1, 1, 1, 1}},
		{3, 4, []int{1, 1, 1, -1}},
		{1, 3, []int{1, -1, -1}},
		{2, 8, []int{1, 1, -1, -1, -1, -1, -1, -1}},
	}
	for _, c := range cases {
		got := splitWorkers(c.workers, c.n)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("splitWorkers(%d, %d) = %v, want %v", c.workers, c.n, got, c.want)
		}
		// Total bound: with ForEachRun capping concurrent solves at
		// workers, the run-pool goroutines of concurrently running solves
		// never exceed the budget. Shares of -1 count as one worker.
		if c.n <= c.workers {
			sum := 0
			for _, w := range got {
				if w < 1 {
					t.Errorf("splitWorkers(%d, %d): share %d below 1 with budget covering all solves", c.workers, c.n, w)
				}
				sum += w
			}
			if sum != c.workers {
				t.Errorf("splitWorkers(%d, %d) sums to %d, want %d", c.workers, c.n, sum, c.workers)
			}
		} else {
			for _, w := range got {
				if w != 1 && w != -1 {
					t.Errorf("splitWorkers(%d, %d): starved share %d, want 1 or -1", c.workers, c.n, w)
				}
			}
		}
	}
	if got := splitWorkers(4, 0); got != nil {
		t.Errorf("splitWorkers(4, 0) = %v, want nil", got)
	}
}
