package hqa

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

func TestSolvesPaperExampleToOptimum(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &Solver{}
	res, err := s.Solve(context.Background(), solver.Request{Model: enc.Model, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	sol, err := enc.Decode(best.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(p); got != 25 {
		t.Errorf("HQA cost on paper example = %v, want 25", got)
	}
}

func TestNoCapacityLimit(t *testing.T) {
	s := &Solver{}
	if got := s.Capacity(); got != 0 {
		t.Errorf("Capacity = %d, want 0 (hybrid decomposes internally)", got)
	}
}

func TestSolveLargerThanQPUSubproblem(t *testing.T) {
	// A 40-variable model on an 8-variable simulated QPU exercises the
	// subproblem extraction loop.
	b := qubo.NewBuilder(40)
	for i := 0; i < 40; i++ {
		b.AddLinear(i, -1)
	}
	for i := 0; i < 39; i++ {
		b.AddQuadratic(i, i+1, 2)
	}
	m := b.Build()
	s := &Solver{SubCapacity: 8}
	res, err := s.Solve(context.Background(), solver.Request{Model: m, Sweeps: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("no samples")
	}
	if len(best.Assignment) != 40 {
		t.Fatalf("assignment length = %d, want 40", len(best.Assignment))
	}
	// Optimal is the alternating pattern with energy −20; the hybrid loop
	// with descent must land at or near it.
	if best.Energy > -18 {
		t.Errorf("energy = %v, want ≤ −18", best.Energy)
	}
}

func TestNoiseDegradesDevice(t *testing.T) {
	// The perturbed model must differ from the original for non-trivial
	// noise — otherwise the QPU model is a silent no-op.
	b := qubo.NewBuilder(4)
	b.AddLinear(0, 1)
	b.AddQuadratic(0, 1, -2)
	b.AddQuadratic(2, 3, 3)
	m := b.Build()
	s := &Solver{Noise: 0.2}
	rng := newTestRand(7)
	noisy := s.perturb(m, rng)
	same := math.Abs(noisy.Linear(0)-m.Linear(0)) < 1e-12
	for _, tm := range m.Terms() {
		var got float64
		for _, nt := range noisy.Terms() {
			if nt.I == tm.I && nt.J == tm.J {
				got = nt.Coeff
			}
		}
		if math.Abs(got-tm.Coeff) > 1e-12 {
			same = false
		}
	}
	if same {
		t.Error("perturb changed nothing at 20% noise")
	}
}

func TestPrecisionQuantisesCoefficients(t *testing.T) {
	b := qubo.NewBuilder(2)
	b.AddLinear(0, 1.23456789)
	b.AddQuadratic(0, 1, -0.98765432)
	m := b.Build()
	s := &Solver{Noise: 1e-12, PrecisionBits: 4}
	noisy := s.perturb(m, newTestRand(1))
	// With 4 bits the quantum is max/8; all coefficients must be integer
	// multiples of it.
	quant := m.MaxAbsCoefficient() / 8
	check := func(c float64) {
		ratio := c / quant
		if math.Abs(ratio-math.Round(ratio)) > 1e-6 {
			t.Errorf("coefficient %v is not on the %v grid", c, quant)
		}
	}
	check(noisy.Linear(0))
	for _, tm := range noisy.Terms() {
		check(tm.Coeff)
	}
}

func TestMinTimeLimitGrows(t *testing.T) {
	small := MinTimeLimit(100)
	large := MinTimeLimit(100000)
	if small != 3*time.Second {
		t.Errorf("MinTimeLimit(100) = %v, want 3s", small)
	}
	if large <= small {
		t.Errorf("MinTimeLimit must grow with size: %v vs %v", large, small)
	}
}

func TestSelectSubproblemWithinCapacity(t *testing.T) {
	b := qubo.NewBuilder(100)
	for i := 0; i < 99; i++ {
		b.AddQuadratic(i, i+1, -1)
	}
	m := b.Build()
	s := &Solver{SubCapacity: 16}
	st := qubo.NewRandomState(m, newTestRand(5))
	block := s.selectSubproblem(m, st, newTestRand(6))
	if len(block) != 16 {
		t.Fatalf("subproblem size = %d, want 16", len(block))
	}
	seen := map[int]bool{}
	for _, v := range block {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("bad subproblem block: %v", block)
		}
		seen[v] = true
	}
}

func TestRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := mqo.PaperExample()
	enc, _ := encoding.EncodeMQO(p)
	s := &Solver{}
	res, err := s.Solve(ctx, solver.Request{Model: enc.Model, Sweeps: 1000000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps != 0 {
		t.Errorf("performed %d QPU sweeps despite cancelled context", res.Sweeps)
	}
}

// newTestRand returns a seeded *rand.Rand for deterministic tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestRejectedIntegrationRestoresState pins that a rejected QPU suggestion
// leaves the incumbent exactly as it was, bits of its energy included. The
// descent after integrating a block may flip variables outside the block,
// so reverting the block alone would not restore the incumbent.
func TestRejectedIntegrationRestoresState(t *testing.T) {
	const n = 600
	rng := newTestRand(17)
	b := qubo.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddLinear(i, rng.NormFloat64())
		for k := 0; k < 10; k++ {
			if j := rng.Intn(n); j != i {
				b.AddQuadratic(i, j, 2*rng.NormFloat64())
			}
		}
	}
	m := b.Build()
	s := &Solver{SubCapacity: 64}
	st := qubo.NewRandomState(m, rng)
	descend(st)
	rejected, outside := 0, 0
	for it := 0; it < 200; it++ {
		block := s.selectSubproblem(m, st, rng)
		assignment, _ := s.qpuSolve(st.ClampedSubModel(block), rng)
		before, energy := st.Assignment(), st.Energy()
		next, ok := integrate(st, block, assignment)
		if ok {
			if next.Energy() >= energy {
				t.Fatalf("iteration %d: adopted a suggestion that raised the energy %v to %v", it, energy, next.Energy())
			}
			st = next
			continue
		}
		rejected++
		// st holds the rejected tentative state: count the rejections
		// whose descent reached beyond the block.
		inBlock := make([]bool, n)
		for _, v := range block {
			inBlock[v] = true
		}
		for v, x := range before {
			if !inBlock[v] && st.Get(v) != x {
				outside++
				break
			}
		}
		if !slices.Equal(next.Assignment(), before) || math.Float64bits(next.Energy()) != math.Float64bits(energy) {
			t.Fatalf("iteration %d: rejected integration changed the incumbent (energy %v → %v)", it, energy, next.Energy())
		}
		st = next
	}
	if outside == 0 {
		t.Fatalf("none of %d rejections flipped a variable outside its block; the case is not exercised", rejected)
	}
	t.Logf("%d rejections, %d reached beyond their block", rejected, outside)
}
