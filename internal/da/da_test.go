package da

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

func TestCapacityDefaultsToHardware(t *testing.T) {
	s := &Solver{}
	if got := s.Capacity(); got != HardwareCapacity {
		t.Errorf("Capacity = %d, want %d", got, HardwareCapacity)
	}
	s.CapacityVars = 64
	if got := s.Capacity(); got != 64 {
		t.Errorf("Capacity override = %d, want 64", got)
	}
}

func TestSolveRejectsOverCapacity(t *testing.T) {
	s := &Solver{CapacityVars: 4}
	b := qubo.NewBuilder(8)
	b.AddLinear(0, 1)
	_, err := s.Solve(context.Background(), solver.Request{Model: b.Build(), Seed: 1})
	if err == nil {
		t.Fatal("Solve accepted over-capacity model")
	}
}

func TestSolvesPaperExampleToOptimum(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &Solver{}
	res, err := s.Solve(context.Background(), solver.Request{Model: enc.Model, Runs: 8, Sweeps: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	sol, err := enc.Decode(best.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(p); got != 25 {
		t.Errorf("DA cost on paper example = %v, want 25", got)
	}
}

func TestDynamicOffsetEscapesLocalMinimum(t *testing.T) {
	// A frustrated two-cluster model with a deep local minimum: strong
	// negative couplings inside clusters, a large barrier between them.
	// With the dynamic offset disabled and a cold start the sampler tends
	// to stay near its start; with the offset enabled it escapes. We only
	// assert the enabled variant reaches the global optimum reliably.
	b := qubo.NewBuilder(6)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			b.AddQuadratic(i, j, -2)
			b.AddQuadratic(i+3, j+3, -3)
		}
	}
	for i := 0; i < 3; i++ {
		b.AddQuadratic(i, i+3, 10) // clusters exclude each other
	}
	m := b.Build()
	// Global optimum: second cluster all ones → −9.
	s := &Solver{}
	res, err := s.Solve(context.Background(), solver.Request{Model: m, Runs: 4, Sweeps: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best, _ := res.Best(); best.Energy != -9 {
		t.Errorf("best energy = %v, want −9", best.Energy)
	}
}

func TestSingleFlipAblationStillSolves(t *testing.T) {
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{SingleFlip: true}
	res, err := s.Solve(context.Background(), solver.Request{Model: enc.Model, Runs: 8, Sweeps: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := res.Best()
	sol, _ := enc.Decode(b.Assignment)
	if err := sol.Validate(p); err != nil {
		t.Fatalf("single-flip produced invalid solution: %v", err)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{}
	req := solver.Request{Model: enc.Model, Runs: 3, Sweeps: 500, Seed: 77}
	r1, _ := s.Solve(context.Background(), req)
	r2, _ := s.Solve(context.Background(), req)
	for i := range r1.Samples {
		if r1.Samples[i].Energy != r2.Samples[i].Energy {
			t.Fatalf("non-deterministic DA for fixed seed")
		}
	}
}

func TestSampleEnergyMatchesAssignment(t *testing.T) {
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{}
	res, err := s.Solve(context.Background(), solver.Request{Model: enc.Model, Runs: 4, Sweeps: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range res.Samples {
		if got := enc.Model.Energy(smp.Assignment); math.Abs(got-smp.Energy) > 1e-9 {
			t.Errorf("reported energy %v, recomputed %v", smp.Energy, got)
		}
	}
}

// TestSolveLargeHonoursParallelism pins that the block solves inherit the
// request's worker budget: a sequential request must not fan its block
// solves out to GOMAXPROCS workers.
func TestSolveLargeHonoursParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	enc, err := encoding.EncodeMQO(mqo.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewCollector(nil)
	ctx := obs.NewContext(context.Background(), sink)
	s := &Solver{CapacityVars: 4}
	req := solver.Request{Model: enc.Model, Runs: 4, Sweeps: 1500, Seed: 4, Parallelism: -1}
	if _, err := s.SolveLarge(ctx, req); err != nil {
		t.Fatal(err)
	}
	pools := 0
	for _, e := range sink.Events() {
		if e.Name != "pool" {
			continue
		}
		pools++
		if e.Run != 1 {
			t.Errorf("block solve ran on %d workers, want 1 for Parallelism -1", e.Run)
		}
	}
	if pools == 0 {
		t.Fatal("traced SolveLarge emitted no pool events")
	}
}

// TestSolveLargeHonoursDeadline pins that a context deadline bounds the
// vendor decomposition: the deadline reaches every block solve, and the
// solve returns its best-so-far assignment instead of working through a
// step budget worth minutes.
func TestSolveLargeHonoursDeadline(t *testing.T) {
	m := obsBenchModel(400)
	s := &Solver{CapacityVars: 160}
	if len(s.blockVariables(m)) < 2 {
		t.Fatal("model does not decompose")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := s.SolveLarge(ctx, solver.Request{Model: m, Runs: 16, Sweeps: 6_000_000, Seed: 8, Parallelism: -1})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("no best-so-far sample")
	}
	if len(best.Assignment) != m.NumVariables() {
		t.Fatalf("assignment length %d, want %d", len(best.Assignment), m.NumVariables())
	}
	if e := m.Energy(best.Assignment); math.Abs(e-best.Energy) > 1e-6*math.Max(1, math.Abs(e)) {
		t.Errorf("reported energy %v, recomputed %v", best.Energy, e)
	}
	if elapsed > 3*time.Second {
		t.Errorf("SolveLarge ran %v past a 30ms deadline", elapsed)
	}
}

func TestSolveLargeDecomposes(t *testing.T) {
	// 12 variables on a 4-variable device: SolveLarge must still produce
	// a full-length assignment and a reasonable energy.
	p := mqo.PaperExample() // 8 plans
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{CapacityVars: 4}
	res, err := s.SolveLarge(context.Background(), solver.Request{Model: enc.Model, Runs: 4, Sweeps: 1500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("no samples")
	}
	if len(best.Assignment) != 8 {
		t.Fatalf("assignment length = %d, want 8", len(best.Assignment))
	}
	sol, err := enc.Decode(best.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatalf("decomposed solve produced invalid solution: %v", err)
	}
	// The vendor-style decomposition is the weak baseline; it must still
	// beat a never-shared selection on this tiny instance.
	if cost := sol.Cost(p); cost > 36 {
		t.Errorf("decomposed cost = %v, want ≤ 36", cost)
	}
}

func TestSolveLargeWithinCapacityDelegates(t *testing.T) {
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{CapacityVars: 64}
	res, err := s.SolveLarge(context.Background(), solver.Request{Model: enc.Model, Runs: 4, Sweeps: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 4 {
		t.Errorf("direct delegation should keep per-run samples, got %d", len(res.Samples))
	}
}

func TestBlockVariablesCoverAllOnce(t *testing.T) {
	b := qubo.NewBuilder(50)
	for i := 0; i < 49; i++ {
		b.AddQuadratic(i, i+1, -1)
	}
	m := b.Build()
	s := &Solver{CapacityVars: 8}
	blocks := s.blockVariables(m)
	seen := make([]bool, 50)
	for _, blk := range blocks {
		if len(blk) > 8 {
			t.Fatalf("block exceeds capacity: %d", len(blk))
		}
		for _, v := range blk {
			if seen[v] {
				t.Fatalf("variable %d in two blocks", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("variable %d in no block", v)
		}
	}
}
