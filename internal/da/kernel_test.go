package da

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"incranneal/internal/cpu"
	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// zeroSource is a rand.Source that always yields 0, forcing
// rand.Float64() to return exactly 0 — the edge the acceptance threshold
// must survive.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// expVariate is the chain's Exp(1) draw as rand.Rand gives it, the
// reference the buffered draws are tested against: −ln(u) for u drawn
// uniformly from (0,1]. rand.Float64 covers the half-open [0,1): drawing it
// directly would occasionally yield exactly 0 and make the acceptance
// threshold +Inf, silently accepting every variable for that step, so the
// draw is mirrored onto (0,1].
func expVariate(rng *rand.Rand) float64 {
	return -math.Log(1 - rng.Float64())
}

// TestExpVariateFiniteOnZeroDraw is the regression test for the parallel
// trial threshold: Float64 can return exactly 0, and −ln(0) = +Inf would
// make theta infinite and silently accept every variable for that step.
// The (0,1]-mirrored draw keeps the variate finite and non-negative.
func TestExpVariateFiniteOnZeroDraw(t *testing.T) {
	rng := rand.New(zeroSource{})
	if got := rng.Float64(); got != 0 {
		t.Fatalf("zeroSource sanity: Float64 = %v, want 0", got)
	}
	var d draws
	d.start(rand.New(zeroSource{}))
	v := d.expVariate()
	if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
		t.Fatalf("expVariate on zero draw = %v, want finite ≥ 0", v)
	}
}

func TestExpVariateDistribution(t *testing.T) {
	var d draws
	d.start(rand.New(rand.NewSource(1)))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := d.expVariate()
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("expVariate = %v", v)
		}
		sum += v
	}
	// Exp(1) has mean 1.
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("expVariate mean = %v, want ≈ 1", mean)
	}
}

// parallelismSettings are the worker counts the determinism contract is
// checked against: sequential, a fixed small pool and whatever this
// machine's GOMAXPROCS resolves to.
func parallelismSettings() []int {
	return []int{-1, 1, 4, runtime.GOMAXPROCS(0)}
}

// assertSamplesIdentical solves req once per parallelism setting and
// requires bit-identical samples (energies and assignments).
func assertSamplesIdentical(t *testing.T, solve func(solver.Request) (*solver.Result, error), req solver.Request) {
	t.Helper()
	var ref *solver.Result
	for _, par := range parallelismSettings() {
		r := req
		r.Parallelism = par
		res, err := solve(r)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.Samples) != len(ref.Samples) {
			t.Fatalf("parallelism %d: %d samples, want %d", par, len(res.Samples), len(ref.Samples))
		}
		for i := range res.Samples {
			if res.Samples[i].Energy != ref.Samples[i].Energy ||
				!reflect.DeepEqual(res.Samples[i].Assignment, ref.Samples[i].Assignment) {
				t.Fatalf("parallelism %d: sample %d differs", par, i)
			}
		}
		if res.Sweeps != ref.Sweeps {
			t.Errorf("parallelism %d: %d sweeps, want %d", par, res.Sweeps, ref.Sweeps)
		}
	}
}

func TestSolveDeterministicAcrossParallelism(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &Solver{}
	assertSamplesIdentical(t, func(r solver.Request) (*solver.Result, error) {
		return s.Solve(context.Background(), r)
	}, solver.Request{Model: enc.Model, Runs: 8, Sweeps: 400, Seed: 42})
}

func TestSolvePTDeterministicAcrossParallelism(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &Solver{}
	assertSamplesIdentical(t, func(r solver.Request) (*solver.Result, error) {
		return s.SolvePT(context.Background(), r)
	}, solver.Request{Model: enc.Model, Sweeps: 2000, Seed: 42})
}

// BenchmarkKernelDAStep measures one parallel-trial Monte-Carlo step — the
// candidate pick, the next threshold draw and the one pass over the delta
// array that flips and counts — at a partition-sized variable count, once
// per kernel level this CPU has.
func BenchmarkKernelDAStep(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	bld := qubo.NewBuilder(512)
	for i := 0; i < 512; i++ {
		bld.AddLinear(i, rng.NormFloat64()*10)
	}
	for k := 0; k < 512*13; k++ {
		i, j := rng.Intn(512), rng.Intn(512)
		if i != j {
			bld.AddQuadratic(i, j, rng.NormFloat64()*10)
		}
	}
	m := bld.Build()
	s := &Solver{}
	hot, cold := temperatureRange(m)
	temp := math.Sqrt(hot * cold)
	offUnit := meanAbsCoefficient(m)
	cpu.Each(func(l cpu.Level) {
		b.Run(l.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			var c chain
			c.start(qubo.NewRandomState(m, rng), rng)
			c.collect(temp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.parallelTrialStep(&c, temp, offUnit)
			}
		})
	})
}
