package da

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"incranneal/internal/qubo"
)

// TestSharedThresholdStepDistribution states the acceptance rule the DA
// runs. On a 3-variable model whose flip deltas at x = 0 are 1, 2 and 4,
// at temperature 2 with no offset, it enumerates the exact one-step flip
// distribution of two rules:
//
//   - the shared threshold θ = T·Exp(1) of parallelTrialStep: variable i is
//     a candidate when E > e_i = ΔE_i/T, so the candidates are always the
//     k smallest, and one is flipped uniformly;
//   - Aramon et al.'s parallel trial: each variable passes its own
//     Metropolis test with p_i = exp(−ΔE_i/T), and one of those that pass
//     is flipped uniformly.
//
// Both give each variable the marginal acceptance p_i, but they differ:
// the shared threshold flips nothing with probability 1 − max_i p_i, the
// paper's rule with Π_i(1 − p_i). The DA step's empirical frequencies
// follow the shared rule.
func TestSharedThresholdStepDistribution(t *testing.T) {
	const temp = 2.0
	deltas := []float64{1, 2, 4}
	b := qubo.NewBuilder(len(deltas))
	for i, d := range deltas {
		b.AddLinear(i, d)
	}
	m := b.Build()
	n := len(deltas)

	// dist[i] is the probability that variable i flips, dist[n] that
	// nothing does.
	shared := make([]float64, n+1)
	e := append(append([]float64(nil), deltas...), math.Inf(1))
	for i := range deltas {
		e[i] /= temp
	}
	for k := 1; k <= n; k++ {
		// E lies in (e_{k−1}, e_k): the k smallest are the candidates.
		mass := math.Exp(-e[k-1]) - math.Exp(-e[k])
		for i := 0; i < k; i++ {
			shared[i] += mass / float64(k)
		}
	}
	shared[n] = 1 - math.Exp(-e[0])
	paper := make([]float64, n+1)
	for set := 0; set < 1<<n; set++ {
		prob := 1.0
		for i := range deltas {
			p := math.Exp(-deltas[i] / temp)
			if set&(1<<i) != 0 {
				prob *= p
			} else {
				prob *= 1 - p
			}
		}
		size := bits.OnesCount(uint(set))
		if size == 0 {
			paper[n] += prob
			continue
		}
		for i := range deltas {
			if set&(1<<i) != 0 {
				paper[i] += prob / float64(size)
			}
		}
	}
	if math.Abs(shared[n]-paper[n]) < 0.1 {
		t.Fatalf("no-flip probabilities %v (shared θ) and %v (per-variable trials) should differ", shared[n], paper[n])
	}
	t.Logf("flip distribution over x0, x1, x2, none: shared θ %.4f, per-variable trials %.4f", shared, paper)

	// The DA's step from x = 0, repeated from a fresh state each time.
	s := &Solver{DisableDynamicOffset: true}
	st := qubo.NewState(m)
	zero := make([]int8, n)
	var c chain
	c.start(st, rand.New(rand.NewSource(9)))
	const trials = 200000
	counts := make([]int, n+1)
	for trial := 0; trial < trials; trial++ {
		st.Reset(zero)
		c.offset = 0
		c.collect(temp)
		flipped := n
		if s.parallelTrialStep(&c, temp, 1) {
			for i := range zero {
				if st.Get(i) != 0 {
					flipped = i
				}
			}
		}
		counts[flipped]++
	}
	for i, cnt := range counts {
		if got := float64(cnt) / trials; math.Abs(got-shared[i]) > 0.01 {
			t.Errorf("outcome %d: the DA step's frequency %.4f, shared-θ probability %.4f (per-variable trials %.4f)", i, got, shared[i], paper[i])
		}
	}
}
