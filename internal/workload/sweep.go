// Package workload generates the MQO problem instances of the paper's
// empirical analysis: the comprehensive parameter sweep of Sec. 5.2
// (queries × plans-per-query × community structure × savings densities) and
// the scenarios extrapolated from conventional query-optimisation
// benchmarks of Sec. 5.3 (TPC-H, LDBC BI, JOB).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"incranneal/internal/mqo"
)

// SweepConfig parameterises the sweep generator (Sec. 5.2.1).
type SweepConfig struct {
	// Queries is |Q|; PPQ the number of alternative plans per query.
	Queries, PPQ int
	// Communities is the number of query communities the queries are
	// randomly distributed into; one community means a uniform instance.
	Communities int
	// EqualCommunities distributes queries evenly; otherwise community
	// sizes vary randomly (the realistic case per the paper).
	EqualCommunities bool
	// DensityLow/High delimit the interval each community's cost-savings
	// density is sampled from (the paper's largest interval is
	// [0.05, 1.0]).
	DensityLow, DensityHigh float64
	// CrossDensity is the savings density between plans of queries in
	// different communities; zero means the paper's 0.05.
	CrossDensity float64
	// SavingLow/High delimit the uniform saving magnitude range; zeros
	// mean the paper's [1, 10].
	SavingLow, SavingHigh float64
	// CostLow/High delimit the uniform base plan cost range; zeros mean
	// the paper's [1, 20].
	CostLow, CostHigh float64
	// OffsetFactor scales the cost offset added per plan to compensate for
	// growing savings magnitudes so that absolute optimal costs stay
	// roughly constant across problem dimensions (Sec. 5.2.1); zero means
	// 1. The paper notes the relative algorithm ranking is invariant to
	// this choice.
	OffsetFactor float64
	// Seed drives all sampling.
	Seed int64
}

func (c SweepConfig) withDefaults() (SweepConfig, error) {
	if c.Queries <= 0 || c.PPQ <= 0 {
		return c, fmt.Errorf("workload: queries and PPQ must be positive (got %d, %d)", c.Queries, c.PPQ)
	}
	if c.Communities <= 0 {
		c.Communities = 1
	}
	if c.Communities > c.Queries {
		return c, fmt.Errorf("workload: %d communities for %d queries", c.Communities, c.Queries)
	}
	if c.DensityLow <= 0 && c.DensityHigh <= 0 {
		c.DensityLow, c.DensityHigh = 0.05, 1.0
	}
	if c.DensityHigh < c.DensityLow || c.DensityLow < 0 || c.DensityHigh > 1 {
		return c, fmt.Errorf("workload: invalid density interval [%v, %v]", c.DensityLow, c.DensityHigh)
	}
	if c.CrossDensity <= 0 {
		c.CrossDensity = 0.05
	}
	if c.SavingLow <= 0 && c.SavingHigh <= 0 {
		c.SavingLow, c.SavingHigh = 1, 10
	}
	if c.CostLow <= 0 && c.CostHigh <= 0 {
		c.CostLow, c.CostHigh = 1, 20
	}
	if c.OffsetFactor <= 0 {
		c.OffsetFactor = 1
	}
	return c, nil
}

// Instance couples a generated problem with the ground-truth structure the
// generator embedded, for analysis and tests.
type Instance struct {
	Problem *mqo.Problem
	// CommunityOf[q] is the community index of query q.
	CommunityOf []int
	// CommunityDensity[c] is the sampled savings density of community c.
	CommunityDensity []float64
	// CommunitySizes[c] is the number of queries in community c.
	CommunitySizes []int
}

// GenerateSweep produces one parameter-sweep instance.
//
// Queries are randomly distributed into communities; plans of query pairs
// within community c share a saving with probability CommunityDensity[c]
// (sampled once per community from the configured interval), across
// communities with probability CrossDensity. Saving values are uniform in
// [SavingLow, SavingHigh]; plan costs are uniform in [CostLow, CostHigh]
// plus a per-query offset proportional to the query's expected realised
// savings, keeping optimal costs roughly level as dimensions grow.
func GenerateSweep(cfg SweepConfig) (*Instance, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	communityOf, sizes := assignCommunities(cfg, rng)
	density := make([]float64, cfg.Communities)
	for c := range density {
		density[c] = cfg.DensityLow + rng.Float64()*(cfg.DensityHigh-cfg.DensityLow)
	}
	meanSaving := (cfg.SavingLow + cfg.SavingHigh) / 2
	// expectedSavings[q] = Σ_{q'≠q} d(q,q')·PPQ·E[s]: the expected saving
	// mass between one plan of q and all plans of other queries; half of
	// the per-pair mass funds each endpoint's offset.
	expectedSavings := make([]float64, cfg.Queries)
	for q := 0; q < cfg.Queries; q++ {
		for c := 0; c < cfg.Communities; c++ {
			n := float64(sizes[c])
			d := cfg.CrossDensity
			if c == communityOf[q] {
				n--
				d = density[c]
			}
			expectedSavings[q] += n * d * float64(cfg.PPQ) * meanSaving
		}
	}
	planCosts := make([][]float64, cfg.Queries)
	for q := range planCosts {
		offset := cfg.OffsetFactor * expectedSavings[q] / 2
		costs := make([]float64, cfg.PPQ)
		for i := range costs {
			costs[i] = cfg.CostLow + rng.Float64()*(cfg.CostHigh-cfg.CostLow) + offset
		}
		planCosts[q] = costs
	}
	savings := sampleSavings(rng, cfg.Queries, cfg.PPQ, cfg.SavingLow, cfg.SavingHigh, func(q1, q2 int) float64 {
		if communityOf[q1] == communityOf[q2] {
			return density[communityOf[q1]]
		}
		return cfg.CrossDensity
	})
	p, err := mqo.NewProblem(planCosts, savings)
	if err != nil {
		return nil, err
	}
	p.Name = fmt.Sprintf("sweep-q%d-ppq%d-c%d-d[%.2f,%.2f]-s%d", cfg.Queries, cfg.PPQ, cfg.Communities, cfg.DensityLow, cfg.DensityHigh, cfg.Seed)
	return &Instance{Problem: p, CommunityOf: communityOf, CommunityDensity: density, CommunitySizes: sizes}, nil
}

// assignCommunities distributes queries into communities, either evenly or
// with random proportions, guaranteeing every community at least one query.
func assignCommunities(cfg SweepConfig, rng *rand.Rand) ([]int, []int) {
	communityOf := make([]int, cfg.Queries)
	sizes := make([]int, cfg.Communities)
	if cfg.Communities == 1 {
		sizes[0] = cfg.Queries
		return communityOf, sizes
	}
	if cfg.EqualCommunities {
		perm := rng.Perm(cfg.Queries)
		for i, q := range perm {
			c := i % cfg.Communities
			communityOf[q] = c
			sizes[c]++
		}
		return communityOf, sizes
	}
	// Varying sizes: random proportions with a floor, then random
	// assignment by cumulative weight.
	weights := make([]float64, cfg.Communities)
	var total float64
	for c := range weights {
		weights[c] = 0.2 + rng.Float64() // floor keeps every community viable
		total += weights[c]
	}
	perm := rng.Perm(cfg.Queries)
	// Seed every community with one query, distribute the rest by weight.
	for c := 0; c < cfg.Communities; c++ {
		communityOf[perm[c]] = c
		sizes[c]++
	}
	for _, q := range perm[cfg.Communities:] {
		r := rng.Float64() * total
		acc := 0.0
		chosen := cfg.Communities - 1
		for c, w := range weights {
			acc += w
			if r < acc {
				chosen = c
				break
			}
		}
		communityOf[q] = chosen
		sizes[chosen]++
	}
	return communityOf, sizes
}

// sampleSavings draws the savings edge set of queries × ppq plans: for
// each query pair q1 < q2, density(q1, q2) selects per plan pair whether a
// saving exists, and each saving's value is uniform in [low, high]. Pair
// counts are sampled binomially and the pairs drawn without replacement,
// so large dense communities generate in O(#savings) rather than
// O(#possible pairs). A density of zero draws nothing from rng.
func sampleSavings(rng *rand.Rand, queries, ppq int, low, high float64, density func(q1, q2 int) float64) []mqo.Saving {
	var savings []mqo.Saving
	pairTotal := ppq * ppq
	for q1 := 0; q1 < queries; q1++ {
		for q2 := q1 + 1; q2 < queries; q2++ {
			k := binomial(rng, pairTotal, density(q1, q2))
			if k == 0 {
				continue
			}
			for _, idx := range samplePairs(rng, pairTotal, k) {
				i, j := idx/ppq, idx%ppq
				savings = append(savings, mqo.Saving{
					P1:    q1*ppq + i,
					P2:    q2*ppq + j,
					Value: low + rng.Float64()*(high-low),
				})
			}
		}
	}
	return savings
}

// binomial samples Binomial(n, p) — exactly for small n, via the normal
// approximation for large n where exact sampling would dominate runtime.
func binomial(rng *rand.Rand, n int, p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	variance := mean * (1 - p)
	k := int(mean + rng.NormFloat64()*math.Sqrt(variance) + 0.5)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// samplePairs draws k distinct integers from [0, n) — by shuffling for
// dense draws, by rejection for sparse ones.
func samplePairs(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if k > n/4 {
		perm := rng.Perm(n)
		return perm[:k]
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
