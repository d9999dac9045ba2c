package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/solver"
)

// gateSolver signals when its first solve begins and holds every solve
// until the context is cancelled (or release closes), so a test can cancel
// a session at a point where a DAG wave is demonstrably in flight.
type gateSolver struct {
	inner   solver.Solver
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateSolver(inner solver.Solver) *gateSolver {
	return &gateSolver{inner: inner, started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateSolver) Name() string  { return g.inner.Name() }
func (g *gateSolver) Capacity() int { return g.inner.Capacity() }
func (g *gateSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	g.once.Do(func() { close(g.started) })
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	return g.inner.Solve(ctx, req)
}

// TestSessionCancelMidWaveNoLeak cancels a session while a DAG wave is in
// flight and asserts every pipeline goroutine drains: Wait returns, the
// incumbent channel closes, and the process goroutine count returns to its
// pre-session level.
func TestSessionCancelMidWaveNoLeak(t *testing.T) {
	in := dagTestInstance(t)
	gate := newGateSolver(&da.Solver{CapacityVars: 64})
	opt := dagTestOptions()
	opt.Device = gate
	opt.Parallelism = 4
	// Arm the checkpoint path, as a served attempt that will be killed does.
	opt.CheckpointFunc = func(*Checkpoint) {}

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := NewSession(in.Problem, opt)
	if err := sess.Start(ctx); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	cancel()

	waitDone := make(chan struct{})
	go func() { sess.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("session did not finish after cancellation")
	}
	// The incumbent stream must close too — a reader blocked on it after
	// cancellation would be a hang in the serving layer.
	for range sess.Incumbents() {
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancel: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDegradationsDeterministicAcrossParallelism injects terminal faults
// keyed on the per-sub request seed — a pure function of the request, not
// of call order — and asserts the Outcome, Degradations included, is
// identical at every Parallelism, the one-worker chain included, for both
// partitioned strategies. Counter-based fault schedules cannot make this
// promise under concurrent waves; seed-keyed ones must.
func TestDegradationsDeterministicAcrossParallelism(t *testing.T) {
	ctx := context.Background()
	in := dagTestInstance(t)
	base := dagTestOptions()
	// Fail two subs terminally: per-sub solve seeds are Seed+1000+i.
	fail := map[int64]bool{
		base.Seed + 1001: true,
		base.Seed + 1003: true,
	}

	for strategy, solve := range map[string]func(context.Context, *mqo.Problem, Options) (*Outcome, error){
		StrategyIncremental: SolveIncremental,
		StrategyParallel:    SolveParallel,
	} {
		var ref *Outcome
		for _, par := range []int{-1, 1, 2, 4} {
			opt := base
			opt.Parallelism = par
			opt.Device = &seedFaultSolver{inner: &da.Solver{CapacityVars: 64}, fail: fail}
			out, err := solve(ctx, in.Problem, opt)
			if err != nil {
				t.Fatalf("%s par=%d: %v", strategy, par, err)
			}
			if len(out.Degradations) != len(fail) {
				t.Fatalf("%s par=%d: %d degradations, want %d",
					strategy, par, len(out.Degradations), len(fail))
			}
			if ref == nil {
				ref = out
				continue
			}
			if !reflect.DeepEqual(out.Degradations, ref.Degradations) {
				t.Errorf("%s par=%d: degradations diverged:\n got %+v\nwant %+v",
					strategy, par, out.Degradations, ref.Degradations)
			}
			assertOutcomeEqual(t, "degraded outcome", ref, out)
		}
	}
}
