package sa

import (
	"context"
	"math"
	"testing"

	"incranneal/internal/qubo"
)

func TestGeometricBetaEndpoints(t *testing.T) {
	hot, cold := 0.1, 10.0
	if got := geometricBeta(hot, cold, 0, 100); math.Abs(got-hot) > 1e-12 {
		t.Errorf("first sweep beta = %v, want %v", got, hot)
	}
	if got := geometricBeta(hot, cold, 99, 100); math.Abs(got-cold) > 1e-9 {
		t.Errorf("last sweep beta = %v, want %v", got, cold)
	}
	// Monotone non-decreasing across the schedule.
	prev := 0.0
	for s := 0; s < 100; s++ {
		b := geometricBeta(hot, cold, s, 100)
		if b < prev {
			t.Fatalf("beta decreased at sweep %d: %v < %v", s, b, prev)
		}
		prev = b
	}
	if got := geometricBeta(hot, cold, 0, 1); got != cold {
		t.Errorf("single-sweep schedule beta = %v, want cold %v", got, cold)
	}
}

func TestBetaRangeOrdering(t *testing.T) {
	b := qubo.NewBuilder(4)
	b.AddLinear(0, 5)
	b.AddQuadratic(1, 2, -0.25)
	b.AddQuadratic(2, 3, 12)
	m := b.Build()
	hot, cold := betaRange(m)
	if hot <= 0 || cold <= hot {
		t.Errorf("betaRange = (%v, %v), want 0 < hot < cold", hot, cold)
	}
	// Hot beta must accept the worst move with probability ≥ ~1/2:
	// worst |ΔE| is bounded by |linear| + incident |couplings| = 12.25.
	if p := math.Exp(-hot * 12.25); p < 0.45 {
		t.Errorf("worst-move acceptance at hot = %v, want ≈ 0.5", p)
	}
}

func TestBetaRangeDegenerateModel(t *testing.T) {
	// All-zero coefficients must still produce a usable range.
	m := qubo.NewBuilder(3).Build()
	hot, cold := betaRange(m)
	if !(hot > 0 && cold > hot) {
		t.Errorf("degenerate betaRange = (%v, %v)", hot, cold)
	}
}

// TestScheduleStopsOnDoneContext pins that the inverse-temperature table
// ignores no deadline: under an already-cancelled context only its first
// 256 entries are filled, while a live context fills every entry with
// geometricBeta's value.
func TestScheduleStopsOnDoneContext(t *testing.T) {
	const sweeps = 1_000_000
	done, cancel := context.WithCancel(context.Background())
	cancel()
	filled := 0
	for _, b := range schedule(done, 0.1, 10, sweeps) {
		if b != 0 {
			filled++
		}
	}
	if filled > 256 {
		t.Errorf("done context: %d of %d entries filled, want at most 256", filled, sweeps)
	}
	for sweep, b := range schedule(context.Background(), 0.1, 10, 1000) {
		if want := geometricBeta(0.1, 10, sweep, 1000); math.Float64bits(b) != math.Float64bits(want) {
			t.Fatalf("live context: betas[%d] = %v, want %v", sweep, b, want)
		}
	}
}
