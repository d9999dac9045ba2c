package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"incranneal/internal/da"
	"incranneal/internal/faultinject"
	"incranneal/internal/mqo"
	"incranneal/internal/resilience"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
)

func TestPipelineRepairsCorruptedSamples(t *testing.T) {
	// Even when the device corrupts every sample, the decode-and-repair
	// path (Sec. 4.2 post-processing) must produce valid, complete
	// solutions for all strategies.
	p := mqo.PaperExample()
	for _, strat := range []struct {
		name  string
		solve func(context.Context, *mqo.Problem, Options) (*Outcome, error)
	}{
		{"incremental", SolveIncremental},
		{"parallel", SolveParallel},
	} {
		opt := Options{
			Device:          faultinject.New(&da.Solver{CapacityVars: 4}, faultinject.Config{Corrupt: true, Seed: 3}),
			PartitionSolver: &da.Solver{CapacityVars: 64},
			Capacity:        4,
			Runs:            4,
			Seed:            1,
		}
		out, err := strat.solve(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("%s with corrupting device: %v", strat.name, err)
		}
		if err := out.Solution.Validate(p); err != nil {
			t.Errorf("%s: invalid solution from corrupted samples: %v", strat.name, err)
		}
		if !out.Solution.Complete() {
			t.Errorf("%s: incomplete solution from corrupted samples", strat.name)
		}
		if len(out.Degradations) != 0 {
			t.Errorf("%s: sample corruption is repaired, not degraded: %+v", strat.name, out.Degradations)
		}
	}
}

func TestPipelineFailFastSurfacesDeviceErrors(t *testing.T) {
	p := mqo.PaperExample()
	opt := Options{
		Device:          faultinject.New(&da.Solver{CapacityVars: 4}, faultinject.Config{TerminalAfter: 1}),
		PartitionSolver: &da.Solver{CapacityVars: 64},
		Capacity:        4,
		Runs:            2,
		Seed:            1,
		FailFast:        true,
	}
	_, err := SolveIncremental(context.Background(), p, opt)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("device failure not surfaced under FailFast: %v", err)
	}
}

// TestPipelineDegradesOnTerminalFailure is the headline robustness
// acceptance: fault injection kills the primary device terminally mid-run,
// and every strategy still returns a valid, complete solution with the
// failures recorded in Outcome.Degradations.
func TestPipelineDegradesOnTerminalFailure(t *testing.T) {
	p := mqo.PaperExample()
	for _, strat := range []struct {
		name  string
		solve func(context.Context, *mqo.Problem, Options) (*Outcome, error)
	}{
		{"incremental", SolveIncremental},
		{"parallel", SolveParallel},
	} {
		opt := Options{
			Device:          faultinject.New(&da.Solver{CapacityVars: 4}, faultinject.Config{TerminalAfter: 1}),
			PartitionSolver: &da.Solver{CapacityVars: 64},
			Capacity:        4,
			Runs:            2,
			Seed:            1,
			// Sequential sub-problem solves keep the counter-based fault
			// schedule deterministic for the parallel strategy too.
			Parallelism: -1,
		}
		out, err := strat.solve(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("%s did not degrade gracefully: %v", strat.name, err)
		}
		if err := out.Solution.Validate(p); err != nil {
			t.Errorf("%s: degraded solution invalid: %v", strat.name, err)
		}
		if !out.Solution.Complete() {
			t.Errorf("%s: degraded solution incomplete", strat.name)
		}
		if len(out.Degradations) == 0 {
			t.Errorf("%s: terminal device failure left no degradation record", strat.name)
		}
		for _, d := range out.Degradations {
			if d.Sub < 0 || d.Sub >= out.NumPartitions {
				t.Errorf("%s: degradation names sub %d of %d", strat.name, d.Sub, out.NumPartitions)
			}
			if d.Reason == "" || d.Device == "" || d.Attempts < 1 {
				t.Errorf("%s: underspecified degradation %+v", strat.name, d)
			}
		}
	}

	// The default strategy degrades the whole problem (Sub = -1).
	out, err := SolveDefault(context.Background(), p, Options{
		Device: faultinject.New(&da.Solver{CapacityVars: 64}, faultinject.Config{TerminalAfter: 0, TransientFirst: 99}),
		Runs:   2,
		Seed:   1,
	})
	if err != nil {
		t.Fatalf("default did not degrade gracefully: %v", err)
	}
	if err := out.Solution.Validate(p); err != nil || !out.Solution.Complete() {
		t.Errorf("default: degraded solution invalid/incomplete: %v", err)
	}
	if len(out.Degradations) != 1 || out.Degradations[0].Sub != -1 {
		t.Errorf("default degradations = %+v, want one whole-problem record", out.Degradations)
	}
}

// TestDegradedOutcomeDeterministic pins the reproducibility contract under
// faults: the same seed and the same fault schedule produce the identical
// Outcome — solution, cost and degradation report — for any Parallelism.
// The incremental strategy issues device solves sequentially, so the
// injector's counter-based schedule replays identically.
func TestDegradedOutcomeDeterministic(t *testing.T) {
	p := mqo.PaperExample()
	run := func(par int) *Outcome {
		t.Helper()
		opt := Options{
			Device:          faultinject.New(&da.Solver{CapacityVars: 4}, faultinject.Config{TerminalAfter: 1, Seed: 9}),
			PartitionSolver: &da.Solver{CapacityVars: 64},
			Capacity:        4,
			Runs:            2,
			Seed:            1,
			Parallelism:     par,
		}
		out, err := SolveIncremental(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(-1)
	if len(ref.Degradations) == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	for _, par := range []int{-1, 1, 4} {
		got := run(par)
		if got.Cost != ref.Cost {
			t.Errorf("parallelism %d: cost %v, want %v", par, got.Cost, ref.Cost)
		}
		for q, pl := range got.Solution.Selected {
			if pl != ref.Solution.Selected[q] {
				t.Errorf("parallelism %d: query %d selected plan %d, want %d", par, q, pl, ref.Solution.Selected[q])
			}
		}
		if len(got.Degradations) != len(ref.Degradations) {
			t.Fatalf("parallelism %d: %d degradations, want %d", par, len(got.Degradations), len(ref.Degradations))
		}
		for i := range got.Degradations {
			if got.Degradations[i] != ref.Degradations[i] {
				t.Errorf("parallelism %d: degradation %d = %+v, want %+v", par, i, got.Degradations[i], ref.Degradations[i])
			}
		}
	}
}

// TestResilienceStackMasksTransientFaults runs the full middleware
// composition inside the pipeline: transient faults on the primary are
// retried away and a backup device absorbs a terminal kill, so the Outcome
// reports *no* degradations at all.
func TestResilienceStackMasksTransientFaults(t *testing.T) {
	p := mqo.PaperExample()
	primary := faultinject.New(&da.Solver{CapacityVars: 4}, faultinject.Config{TransientFirst: 1, TerminalAfter: 1})
	dev := resilience.Wrap([]solver.Solver{primary, &sa.Solver{}}, resilience.Config{
		Retries: 3, RetryBase: time.Microsecond, BreakerThreshold: 4,
	})
	out, err := SolveIncremental(context.Background(), p, Options{
		Device:          dev,
		PartitionSolver: &da.Solver{CapacityVars: 64},
		Capacity:        4,
		Runs:            2,
		Seed:            1,
	})
	if err != nil {
		t.Fatalf("resilient pipeline failed: %v", err)
	}
	if err := out.Solution.Validate(p); err != nil || !out.Solution.Complete() {
		t.Errorf("resilient pipeline solution invalid/incomplete: %v", err)
	}
	if len(out.Degradations) != 0 {
		t.Errorf("middleware should have absorbed every fault, got degradations %+v", out.Degradations)
	}
	if st := primary.Stats(); st.Transients == 0 || st.Terminals == 0 {
		t.Errorf("fault schedule did not exercise the middleware: %+v", st)
	}
}

func TestPipelineRespectsCancellationMidway(t *testing.T) {
	// Cancel after the first partial solve: the pipeline must return
	// promptly (either a context error or a degraded-but-valid result from
	// already-collected samples — never hang).
	p := mqo.PaperExample()
	ctx, cancel := context.WithCancel(context.Background())
	dev := &cancellingSolver{inner: &da.Solver{CapacityVars: 4}, cancel: cancel}
	opt := Options{
		Device:          dev,
		PartitionSolver: &da.Solver{CapacityVars: 64},
		Capacity:        4,
		Runs:            2,
		Seed:            1,
	}
	out, err := SolveIncremental(ctx, p, opt)
	if err == nil {
		// Cancellation degraded the later solves but repair still yields
		// valid solutions; both outcomes are acceptable.
		if verr := out.Solution.Validate(p); verr != nil {
			t.Errorf("post-cancellation solution invalid: %v", verr)
		}
	}
}

// cancellingSolver cancels the context after its first solve.
type cancellingSolver struct {
	inner  solver.Solver
	cancel context.CancelFunc
	done   bool
}

func (c *cancellingSolver) Name() string  { return c.inner.Name() }
func (c *cancellingSolver) Capacity() int { return c.inner.Capacity() }
func (c *cancellingSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	res, err := c.inner.Solve(ctx, req)
	if !c.done {
		c.done = true
		c.cancel()
	}
	return res, err
}

// failingSubSolver fails every solve with an error naming the partial
// problem, recovered from the per-node seed opt.Seed+1000+node, and stalls
// sub 0 so that later subs of its wave fail first.
type failingSubSolver struct{ seed int64 }

func (f failingSubSolver) Name() string  { return "failing" }
func (f failingSubSolver) Capacity() int { return 64 }
func (f failingSubSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	sub := req.Seed - f.seed - 1000
	if sub == 0 {
		time.Sleep(30 * time.Millisecond)
	}
	return nil, fmt.Errorf("sub %d failed", sub)
}

// TestWaveErrorIndependentOfCompletionOrder pins that a FailFast solve whose
// wave has several failing partial problems reports the lowest-index one at
// every Parallelism, not whichever failed first.
func TestWaveErrorIndependentOfCompletionOrder(t *testing.T) {
	p := dagTestInstance(t).Problem
	for _, par := range []int{-1, 2, 4} {
		opt := Options{
			Device:          failingSubSolver{seed: 17},
			PartitionSolver: &da.Solver{},
			Runs:            2,
			Seed:            17,
			Parallelism:     par,
			FailFast:        true,
		}
		_, err := SolveParallel(context.Background(), p, opt)
		if err == nil || !strings.Contains(err.Error(), "sub 0 failed") {
			t.Errorf("parallelism %d: error %v, want sub 0's", par, err)
		}
	}
}

func TestPartitionSweepsDistribution(t *testing.T) {
	o := Options{TotalSweeps: 100}
	for i := 0; i < 4; i++ {
		if got := o.partitionSweeps(4, i); got != 25 {
			t.Errorf("partitionSweeps(4, %d) = %d, want 25", i, got)
		}
	}
	// 103 = 4·25 + 3: the remainder lands one sweep each on the first three
	// partitions, never silently dropped.
	o.TotalSweeps = 103
	want := []int{26, 26, 26, 25}
	for i, w := range want {
		if got := o.partitionSweeps(4, i); got != w {
			t.Errorf("partitionSweeps(4, %d) = %d, want %d", i, got, w)
		}
	}
	// The per-partition budgets must sum exactly to TotalSweeps whenever
	// TotalSweeps ≥ n (below that the per-partition floor of 1 dominates).
	for _, total := range []int{1, 2, 3, 4, 5, 7, 97, 100, 103, 4000} {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
			o.TotalSweeps = total
			sum := 0
			for i := 0; i < n; i++ {
				sum += o.partitionSweeps(n, i)
			}
			if total >= n && sum != total {
				t.Errorf("TotalSweeps=%d over %d partitions sums to %d", total, n, sum)
			}
			if total < n && sum != n {
				t.Errorf("TotalSweeps=%d under %d partitions: floor of 1 each, got sum %d", total, n, sum)
			}
		}
	}
	o.TotalSweeps = 100
	if got := o.partitionSweeps(1000, 999); got != 1 {
		t.Errorf("partitionSweeps floors at 1, got %d", got)
	}
	o.TotalSweeps = 0
	if got := o.partitionSweeps(4, 0); got != 0 {
		t.Errorf("zero budget must stay device-default, got %d", got)
	}
}

func TestOutcomeReportsStrategyNames(t *testing.T) {
	p := mqo.PaperExample()
	opt := Options{Device: &da.Solver{CapacityVars: 64}, Runs: 4, Seed: 1}
	inc, err := SolveIncremental(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveParallel(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	def, err := SolveDefault(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Strategy != "incremental" || par.Strategy != "parallel" || def.Strategy != "default" {
		t.Errorf("strategies = %q, %q, %q", inc.Strategy, par.Strategy, def.Strategy)
	}
}
