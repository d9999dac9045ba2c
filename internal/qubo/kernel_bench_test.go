package qubo

import (
	"math/rand"
	"sort"
	"testing"
)

// Kernel micro-benchmarks: the inner-loop primitives every annealing
// simulator is built from. CI runs every benchmark once as a smoke test;
// EXPERIMENTS.md ("Kernel micro-benchmarks") keeps the recorded full runs.

func benchKernelState(b *testing.B) *State {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	m := randomModel(rng, 512, 0.05)
	return NewRandomState(m, rng)
}

// benchBisection returns a random state of a 256-node graph-bisection
// QUBO, (Σ ω_i s_i)² + Σ_e ω_e(1−s_u s_v)/2 with the Theorem 4.5 multiplier,
// whose balance term makes every row dense, and a threshold admitting 90%
// of the variables: the acceptance rate of the partitioning phase's late
// anneal steps.
func benchBisection(b *testing.B) (*State, float64) {
	b.Helper()
	const n = 256
	rng := rand.New(rand.NewSource(42))
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + rng.Intn(6))
	}
	// coup[u*n+v] (u < v) accumulates the spin coupling J_uv: the edge
	// term −ω_e/2 first, then the balance term 2·ω_A·ω_u·ω_v.
	coup := make([]float64, n*n)
	incident := make([]float64, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.05 {
				e := 1 + 9*rng.Float64()
				coup[u*n+v] = -e / 2
				incident[u] += e
				incident[v] += e
			}
		}
	}
	lagrange := 0.0
	for _, s := range incident {
		lagrange = max(lagrange, s)
	}
	// Substitute s = 2x − 1: J·s_u·s_v = 4J·x_u·x_v − 2J·x_u − 2J·x_v + J.
	bld := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			c := coup[u*n+v] + 2*lagrange*w[u]*w[v]
			bld.AddQuadratic(u, v, 4*c)
			bld.AddLinear(u, -2*c)
			bld.AddLinear(v, -2*c)
		}
	}
	st := NewRandomState(bld.Build(), rng)
	sorted := append([]float64(nil), st.Deltas()...)
	sort.Float64s(sorted)
	return st, sorted[n*9/10]
}

// BenchmarkKernelFlip measures the O(degree) incremental flip including
// delta-array maintenance.
func BenchmarkKernelFlip(b *testing.B) {
	st := benchKernelState(b)
	n := st.Model().NumVariables()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Flip(i % n)
	}
}

// BenchmarkKernelCountBelow measures the candidate count of the DA's
// parallel trial step that follows a rejected step: one tight pass over
// the flat delta array.
func BenchmarkKernelCountBelow(b *testing.B) {
	st, theta := benchBisection(b)
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += st.CountBelow(theta)
	}
	_ = acc
}

// BenchmarkKernelPickBelow measures the pick of an accepted step: finding
// the candidate a draw selects, here the middle one, the mean position of
// a uniform draw.
func BenchmarkKernelPickBelow(b *testing.B) {
	st, theta := benchBisection(b)
	k := st.CountBelow(theta) / 2
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += st.PickBelow(theta, k)
	}
	_ = acc
}

// BenchmarkKernelFlipCount measures the accepted step's fused pass on a
// dense bisection row: the flip's delta updates and the next step's
// candidate count in one loop.
func BenchmarkKernelFlipCount(b *testing.B) {
	st, theta := benchBisection(b)
	n := st.Model().NumVariables()
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += st.FlipCount(i%n, theta)
	}
	_ = acc
}
