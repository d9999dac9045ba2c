package sa

import (
	"context"
	"math"
	"testing"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

func TestSolveEmptyModelFails(t *testing.T) {
	s := &Solver{}
	if _, err := s.Solve(context.Background(), solver.Request{}); err == nil {
		t.Error("Solve accepted nil model")
	}
}

func TestSolveTrivialModel(t *testing.T) {
	// f = −x0 + x1: minimum at x = (1, 0) with energy −1.
	b := qubo.NewBuilder(2)
	b.AddLinear(0, -1)
	b.AddLinear(1, 1)
	s := &Solver{}
	res, err := s.Solve(context.Background(), solver.Request{Model: b.Build(), Runs: 2, Sweeps: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("no samples")
	}
	if best.Energy != -1 || best.Assignment[0] != 1 || best.Assignment[1] != 0 {
		t.Errorf("best = %+v, want energy −1 at (1,0)", best)
	}
	if len(res.Samples) != 2 {
		t.Errorf("samples = %d, want 2", len(res.Samples))
	}
}

func TestSolvesPaperExampleToOptimum(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &Solver{}
	res, err := s.Solve(context.Background(), solver.Request{Model: enc.Model, Runs: 8, Sweeps: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := res.Best()
	sol, err := enc.Decode(b.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(p); got != 25 {
		t.Errorf("SA cost on paper example = %v, want 25", got)
	}
}

func TestSampleEnergiesSorted(t *testing.T) {
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{}
	res, err := s.Solve(context.Background(), solver.Request{Model: enc.Model, Runs: 6, Sweeps: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].Energy < res.Samples[i-1].Energy {
			t.Fatalf("samples not sorted: %v then %v", res.Samples[i-1].Energy, res.Samples[i].Energy)
		}
	}
}

func TestSampleEnergyMatchesAssignment(t *testing.T) {
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{}
	res, err := s.Solve(context.Background(), solver.Request{Model: enc.Model, Runs: 4, Sweeps: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range res.Samples {
		if got := enc.Model.Energy(smp.Assignment); math.Abs(got-smp.Energy) > 1e-9 {
			t.Errorf("reported energy %v, recomputed %v", smp.Energy, got)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{}
	req := solver.Request{Model: enc.Model, Runs: 3, Sweeps: 40, Seed: 42}
	r1, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Samples {
		if r1.Samples[i].Energy != r2.Samples[i].Energy {
			t.Fatalf("non-deterministic energies for fixed seed: %v vs %v", r1.Samples[i].Energy, r2.Samples[i].Energy)
		}
	}
}

func TestRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{}
	res, err := s.Solve(ctx, solver.Request{Model: enc.Model, Runs: 4, Sweeps: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cancelled immediately: at most one sample's worth of setup, no
	// meaningful sweeps.
	if res.Sweeps != 0 {
		t.Errorf("performed %d sweeps despite cancelled context", res.Sweeps)
	}
}

func TestTimeBudgetBoundsRuntime(t *testing.T) {
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Solve(ctx, solver.Request{Model: enc.Model, Runs: 1000, Sweeps: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("solve ran %v despite 50ms budget", elapsed)
	}
}
