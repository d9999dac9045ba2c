package da

import (
	"context"
	"math"
	"testing"

	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

func modelOf(n int) *qubo.Model {
	b := qubo.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddLinear(i, 1)
	}
	return b.Build()
}

func TestStepBudgetDefaults(t *testing.T) {
	s := &Solver{}
	// Explicit request wins.
	if got := s.steps(solver.Request{Model: modelOf(10), Sweeps: 123}); got != 123 {
		t.Errorf("explicit sweeps = %d, want 123", got)
	}
	// Derived budget: 20·n clamped to [2,000, 60,000].
	if got := s.steps(solver.Request{Model: modelOf(10)}); got != 2000 {
		t.Errorf("small-model floor = %d, want 2000", got)
	}
	if got := s.steps(solver.Request{Model: modelOf(1000)}); got != 20000 {
		t.Errorf("mid-model budget = %d, want 20000", got)
	}
	if got := s.steps(solver.Request{Model: modelOf(10000)}); got != 60000 {
		t.Errorf("large-model cap = %d, want 60000", got)
	}
}

func TestRunsDefaults(t *testing.T) {
	s := &Solver{}
	if got := s.runs(solver.Request{}); got != 16 {
		t.Errorf("default runs = %d, want the paper's 16", got)
	}
	if got := s.runs(solver.Request{Runs: 3}); got != 3 {
		t.Errorf("explicit runs = %d, want 3", got)
	}
}

func TestTemperatureRangeOrdering(t *testing.T) {
	b := qubo.NewBuilder(3)
	b.AddLinear(0, 4)
	b.AddQuadratic(1, 2, -0.5)
	hot, cold := temperatureRange(b.Build())
	if !(cold > 0 && hot > cold) {
		t.Errorf("temperatureRange = (%v, %v), want hot > cold > 0", hot, cold)
	}
	// Degenerate all-zero model.
	hot, cold = temperatureRange(qubo.NewBuilder(2).Build())
	if !(cold > 0 && hot > cold) {
		t.Errorf("degenerate range = (%v, %v)", hot, cold)
	}
}

func TestMeanAbsCoefficient(t *testing.T) {
	b := qubo.NewBuilder(3)
	b.AddLinear(0, -4)
	b.AddQuadratic(1, 2, 2)
	if got := meanAbsCoefficient(b.Build()); got != 3 {
		t.Errorf("meanAbsCoefficient = %v, want 3", got)
	}
	if got := meanAbsCoefficient(qubo.NewBuilder(2).Build()); got != 0 {
		t.Errorf("empty model mean = %v, want 0", got)
	}
}

// TestRunParamsStopOnDoneContext pins that the temperature table ignores
// no deadline: under an already-cancelled context each worker fills at
// most checkEvery entries, temps[0] among them (anneal reads it before
// its step-0 check). Under a live context every entry is written, with
// the same bits at any worker count.
func TestRunParamsStopOnDoneContext(t *testing.T) {
	m := modelOf(64)
	s := &Solver{}
	const steps = 1_000_000
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		temps := s.newRunParams(done, m, steps, workers).temps
		filled := 0
		for _, v := range temps {
			if v != 0 {
				filled++
			}
		}
		if temps[0] == 0 || filled > workers*checkEvery {
			t.Errorf("%d workers under a done context: temps[0] = %v, %d of %d entries filled, want temps[0] and at most %d",
				workers, temps[0], filled, steps, workers*checkEvery)
		}
	}
	want := s.newRunParams(context.Background(), m, 10_000, 1).temps
	got := s.newRunParams(context.Background(), m, 10_000, 4).temps
	for i := range want {
		if want[i] == 0 || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("live context: temps[%d] = %v on 4 workers, %v on 1", i, got[i], want[i])
		}
	}
}
