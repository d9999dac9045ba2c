package da

import (
	"context"
	"io"
	"math"
	"math/rand"
	"testing"

	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

func obsBenchModel(n int) *qubo.Model {
	rng := rand.New(rand.NewSource(42))
	bld := qubo.NewBuilder(n)
	for i := 0; i < n; i++ {
		bld.AddLinear(i, rng.NormFloat64()*10)
	}
	for k := 0; k < n*13; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			bld.AddQuadratic(i, j, rng.NormFloat64()*10)
		}
	}
	return bld.Build()
}

// TestDisabledSinkStepNoAllocs pins the zero-overhead contract at the kernel
// level: one parallel-trial Monte-Carlo step allocates nothing, with the
// instrumentation compiled in but disabled (nil RunTrace).
func TestDisabledSinkStepNoAllocs(t *testing.T) {
	m := obsBenchModel(256)
	s := &Solver{}
	rng := rand.New(rand.NewSource(7))
	hot, cold := temperatureRange(m)
	temp := math.Sqrt(hot * cold)
	offUnit := meanAbsCoefficient(m)
	var c chain
	c.start(qubo.NewRandomState(m, rng), rng)
	c.collect(temp)
	allocs := testing.AllocsPerRun(200, func() {
		s.parallelTrialStep(&c, temp, offUnit)
	})
	if allocs != 0 {
		t.Errorf("kernel step allocates %.1f objects/op with tracing disabled, want 0", allocs)
	}
}

// TestDisabledSinkAnnealNoPerStepAllocs pins that a full disabled-sink
// anneal's allocation count is independent of the sweep count: everything it
// allocates is per-run setup, nothing accumulates per Monte-Carlo step.
func TestDisabledSinkAnnealNoPerStepAllocs(t *testing.T) {
	m := obsBenchModel(128)
	s := &Solver{}
	ctx := context.Background()
	annealAllocs := func(steps int) float64 {
		prm := s.newRunParams(m, steps, 1)
		return testing.AllocsPerRun(10, func() {
			rng := rand.New(rand.NewSource(3))
			s.anneal(ctx, m, prm, qubo.NewRandomState(m, rng), rng, nil)
		})
	}
	short, long := annealAllocs(100), annealAllocs(4000)
	if short != long {
		t.Errorf("anneal allocations scale with sweeps when disabled: %v @100 vs %v @4000", short, long)
	}
}

// BenchmarkObsOverhead compares a full DA solve with the observability sink
// disabled (the default; must match the pre-instrumentation cost recorded in
// the EXPERIMENTS.md kernel history) against one tracing to a discarded
// JSONL stream with metrics — the worst-case enabled cost. The disabled
// path's zero-alloc contract is pinned by the TestDisabledSink* tests above.
func BenchmarkObsOverhead(b *testing.B) {
	m := obsBenchModel(128)
	s := &Solver{}
	req := solver.Request{Model: m, Runs: 4, Sweeps: 2000, Seed: 11, Parallelism: -1}
	b.Run("disabled", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		sink := obs.NewSink(io.Discard, obs.NewRegistry())
		ctx := obs.NewContext(context.Background(), sink)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
