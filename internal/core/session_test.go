package core

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/obs"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

func sessionTestProblem(t *testing.T) (*Options, *workload.Instance) {
	t.Helper()
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 40, PPQ: 3, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.8, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := &Options{
		Device:      &da.Solver{CapacityVars: 40},
		Capacity:    40,
		Runs:        4,
		TotalSweeps: 800,
		Seed:        7,
		Parallelism: -1,
	}
	return opt, in
}

// TestSessionMatchesSolveIncremental pins the session determinism contract:
// observing a solve through a Session (merge hook, incumbent stream)
// yields a bit-identical Outcome to calling SolveIncremental directly.
func TestSessionMatchesSolveIncremental(t *testing.T) {
	ctx := context.Background()
	opt, in := sessionTestProblem(t)
	want, err := SolveIncremental(ctx, in.Problem, *opt)
	if err != nil {
		t.Fatal(err)
	}

	sess := NewSession(in.Problem, *opt)
	if err := sess.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var incumbents []Incumbent
	for inc := range sess.Incumbents() {
		incumbents = append(incumbents, inc)
	}
	got, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if got.Cost != want.Cost {
		t.Errorf("session cost %v, direct solve %v", got.Cost, want.Cost)
	}
	for q, pl := range got.Solution.Selected {
		if want.Solution.Selected[q] != pl {
			t.Fatalf("query %d: session plan %d, direct %d", q, pl, want.Solution.Selected[q])
		}
	}
	if got.NumPartitions != want.NumPartitions || got.Sweeps != want.Sweeps {
		t.Errorf("stats diverge: session {parts %d, sweeps %d}, direct {parts %d, sweeps %d}",
			got.NumPartitions, got.Sweeps, want.NumPartitions, want.Sweeps)
	}

	if len(incumbents) == 0 {
		t.Fatal("no incumbents streamed")
	}
	last := incumbents[len(incumbents)-1]
	if !last.Final {
		t.Errorf("last streamed point not final: %+v", last)
	}
	if last.Cost != want.Cost {
		t.Errorf("final incumbent cost %v, outcome %v", last.Cost, want.Cost)
	}
	if last.Merged != want.NumPartitions {
		t.Errorf("final incumbent merged %d, outcome partitions %d", last.Merged, want.NumPartitions)
	}
	// The incremental strategy emits one merge point per partial problem
	// (plus the final point); with a fast consumer nothing is dropped.
	if want.NumPartitions > 1 && len(incumbents) != want.NumPartitions+1 {
		t.Errorf("streamed %d points, want %d merges + 1 final", len(incumbents), want.NumPartitions)
	}
	for i, inc := range incumbents[:len(incumbents)-1] {
		if inc.Merged != i+1 {
			t.Errorf("point %d: merged %d, want %d", i, inc.Merged, i+1)
		}
		if inc.Final {
			t.Errorf("point %d marked final", i)
		}
	}
}

// TestSessionStrategies runs every strategy through the session and checks
// each against its direct Solve* counterpart.
func TestSessionStrategies(t *testing.T) {
	ctx := context.Background()
	opt, in := sessionTestProblem(t)
	direct := map[string]func(context.Context, *Options) (*Outcome, error){
		StrategyIncremental: func(ctx context.Context, o *Options) (*Outcome, error) { return SolveIncremental(ctx, in.Problem, *o) },
		StrategyParallel:    func(ctx context.Context, o *Options) (*Outcome, error) { return SolveParallel(ctx, in.Problem, *o) },
		StrategyDefault:     func(ctx context.Context, o *Options) (*Outcome, error) { return SolveDefault(ctx, in.Problem, *o) },
	}
	for strategy, solve := range direct {
		t.Run(strategy, func(t *testing.T) {
			want, err := solve(ctx, opt)
			if err != nil {
				t.Fatal(err)
			}
			sess := NewSession(in.Problem, *opt)
			sess.Strategy = strategy
			got, err := sess.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost {
				t.Errorf("cost %v, direct %v", got.Cost, want.Cost)
			}
			if got.Strategy != want.Strategy {
				t.Errorf("outcome strategy %q, direct %q", got.Strategy, want.Strategy)
			}
			// Both partitioned strategies stream one incumbent per merged
			// partial problem, each naming its sub, then the final point.
			if strategy != StrategyDefault && want.NumPartitions > 1 {
				sess := NewSession(in.Problem, *opt)
				sess.Strategy = strategy
				if err := sess.Start(ctx); err != nil {
					t.Fatal(err)
				}
				n := 0
				var subs []int
				for inc := range sess.Incumbents() {
					n++
					if !inc.Final {
						subs = append(subs, inc.Sub)
					}
				}
				if _, err := sess.Wait(); err != nil {
					t.Fatal(err)
				}
				if n != want.NumPartitions+1 {
					t.Errorf("streamed %d incumbents, want %d merges + 1 final", n, want.NumPartitions)
				}
				sort.Ints(subs)
				for i, sub := range subs {
					if sub != i {
						t.Errorf("merge incumbents name subs %v, want each of 0..%d once", subs, want.NumPartitions-1)
						break
					}
				}
			}
		})
	}
}

// TestSessionChainsContextSink verifies a sink already on the Start context
// still receives the solve's trace events alongside the incumbent stream,
// and that its merge events and the incumbents agree point for point.
func TestSessionChainsContextSink(t *testing.T) {
	opt, in := sessionTestProblem(t)
	collector := obs.NewCollector(nil)
	ctx := obs.NewContext(context.Background(), collector)

	sess := NewSession(in.Problem, *opt)
	if err := sess.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var incs []Incumbent
	for inc := range sess.Incumbents() {
		if !inc.Final {
			incs = append(incs, inc)
		}
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	var merges []obs.Event
	for _, e := range collector.Events() {
		if e.Name == "merge" {
			merges = append(merges, e)
		}
	}
	if len(merges) == 0 || len(merges) != len(incs) {
		t.Fatalf("%d merge events, %d merge incumbents", len(merges), len(incs))
	}
	for i, e := range merges {
		inc := incs[i]
		if e.Label != subLabel(inc.Sub) || e.N != inc.Merged || e.Value != inc.Cost {
			t.Errorf("merge %d: event {%s n=%d value=%v}, incumbent %+v", i, e.Label, e.N, e.Value, inc)
		}
	}
}

// sinkSpy is a device that records whether any of its solves saw an obs
// sink on the context.
type sinkSpy struct {
	solver.LargeSolver
	sawSink atomic.Bool
}

func (s *sinkSpy) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	s.sawSink.CompareAndSwap(false, obs.FromContext(ctx) != nil)
	return s.LargeSolver.Solve(ctx, req)
}

func (s *sinkSpy) SolveLarge(ctx context.Context, req solver.Request) (*solver.Result, error) {
	s.sawSink.CompareAndSwap(false, obs.FromContext(ctx) != nil)
	return s.LargeSolver.SolveLarge(ctx, req)
}

// TestSessionWithoutSinkRunsUnobserved pins that the incumbent stream does
// not ride the trace bus: a session whose caller attached no sink runs its
// solve, partitioning included, with none.
func TestSessionWithoutSinkRunsUnobserved(t *testing.T) {
	opt, in := sessionTestProblem(t)
	for _, strategy := range []string{StrategyIncremental, StrategyParallel, StrategyDefault} {
		spy := &sinkSpy{LargeSolver: opt.Device.(solver.LargeSolver)}
		o := *opt
		o.Device = spy
		sess := NewSession(in.Problem, o)
		sess.Strategy = strategy
		if _, err := sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if spy.sawSink.Load() {
			t.Errorf("%s: a device solve saw an obs sink the caller never attached", strategy)
		}
	}
}

// TestSessionLifecycleErrors covers the misuse paths: double Start, unknown
// strategy, nil problem.
func TestSessionLifecycleErrors(t *testing.T) {
	ctx := context.Background()
	opt, in := sessionTestProblem(t)

	sess := NewSession(in.Problem, *opt)
	if err := sess.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(ctx); err == nil {
		t.Error("second Start succeeded")
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}

	bad := NewSession(in.Problem, *opt)
	bad.Strategy = "nope"
	if err := bad.Start(ctx); err == nil {
		t.Error("unknown strategy accepted")
	}

	if err := NewSession(nil, *opt).Start(ctx); err == nil {
		t.Error("nil problem accepted")
	}
}

// TestSessionPushDropsOldest pins the lossy-buffer policy directly: a full
// buffer drops the oldest point, and the final point always lands.
func TestSessionPushDropsOldest(t *testing.T) {
	s := &Session{incumbents: make(chan Incumbent, 2)}
	s.push(Incumbent{Merged: 1})
	s.push(Incumbent{Merged: 2})
	s.push(Incumbent{Merged: 3, Final: true}) // buffer full: drops Merged:1
	first := <-s.incumbents
	second := <-s.incumbents
	if first.Merged != 2 || !second.Final {
		t.Errorf("buffer after overflow: %+v, %+v; want Merged:2 then the final point", first, second)
	}
}
