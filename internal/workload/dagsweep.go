package workload

import (
	"fmt"
	"math/rand"

	"incranneal/internal/mqo"
)

// DAGSweepConfig parameterises GenerateDAGSweep: a sweep-style instance
// whose cross-community savings follow an explicit community topology
// instead of the uniform CrossDensity of GenerateSweep (which links every
// community pair and therefore yields a complete DSS dependency graph once
// partitioned). Extracting one sub-problem per community turns the
// community graph directly into the incremental scheduler's dependency DAG.
type DAGSweepConfig struct {
	// Queries is |Q|, split over Communities in contiguous, near-equal
	// blocks; PPQ the number of alternative plans per query.
	Queries, PPQ, Communities int
	// IntraDensity is the savings density between plans of queries within
	// one community; zero means 0.3.
	IntraDensity float64
	// CrossDensity is the savings density between plans of queries in
	// *linked* communities; unlinked pairs share no savings at all. Zero
	// means the paper's 0.05.
	CrossDensity float64
	// CommunityPairs lists the linked community pairs (a, b) with a < b.
	// Nil means the stride topology {(i, i+C/2) : i < C/2} — C/2 disjoint
	// dependencies, so the resulting DAG has two waves of width C/2, the
	// maximally concurrent schedule that still exercises DSS joins.
	CommunityPairs [][2]int
	// SavingLow/High and CostLow/High delimit the uniform saving and base
	// plan cost ranges; zeros mean the paper's [1, 10] and [1, 20].
	SavingLow, SavingHigh float64
	CostLow, CostHigh     float64
	// Seed drives all sampling.
	Seed int64
}

func (c DAGSweepConfig) withDefaults() (DAGSweepConfig, error) {
	if c.Queries <= 0 || c.PPQ <= 0 {
		return c, fmt.Errorf("workload: queries and PPQ must be positive (got %d, %d)", c.Queries, c.PPQ)
	}
	if c.Communities <= 0 {
		c.Communities = 1
	}
	if c.Communities > c.Queries {
		return c, fmt.Errorf("workload: %d communities for %d queries", c.Communities, c.Queries)
	}
	if c.IntraDensity <= 0 {
		c.IntraDensity = 0.3
	}
	if c.CrossDensity <= 0 {
		c.CrossDensity = 0.05
	}
	if c.IntraDensity > 1 || c.CrossDensity > 1 {
		return c, fmt.Errorf("workload: invalid densities intra=%v cross=%v", c.IntraDensity, c.CrossDensity)
	}
	if c.SavingLow <= 0 && c.SavingHigh <= 0 {
		c.SavingLow, c.SavingHigh = 1, 10
	}
	if c.CostLow <= 0 && c.CostHigh <= 0 {
		c.CostLow, c.CostHigh = 1, 20
	}
	if c.CommunityPairs == nil {
		half := c.Communities / 2
		for i := 0; i < half && half+i < c.Communities; i++ {
			c.CommunityPairs = append(c.CommunityPairs, [2]int{i, half + i})
		}
	}
	for _, pr := range c.CommunityPairs {
		if pr[0] < 0 || pr[1] >= c.Communities || pr[0] >= pr[1] {
			return c, fmt.Errorf("workload: invalid community pair %v", pr)
		}
	}
	return c, nil
}

// DAGInstance couples a generated problem with the community blocks and the
// linked pairs the generator embedded. Communities hold ascending parent
// query indices, so extracting them in order yields sub-problems whose DSS
// dependency DAG is exactly Pairs (oriented low index → high index).
type DAGInstance struct {
	Problem *mqo.Problem
	// Communities[c] lists the queries of community c, ascending.
	Communities [][]int
	// Pairs are the linked community pairs that may share savings.
	Pairs [][2]int
}

// SubProblems extracts one sub-problem per community, in community order —
// the partial-problem layout whose dependency DAG mirrors Pairs. The
// sub-problems are freshly extracted on every call (DSS consumes adjusted
// costs, so callers need a fresh set per solve).
func (in *DAGInstance) SubProblems() ([]*mqo.SubProblem, error) {
	subs := make([]*mqo.SubProblem, len(in.Communities))
	for c, qs := range in.Communities {
		sub, err := mqo.Extract(in.Problem, qs)
		if err != nil {
			return nil, err
		}
		subs[c] = sub
	}
	return subs, nil
}

// GenerateDAGSweep produces one topology-controlled sweep instance: queries
// are split over communities in contiguous blocks; plans of query pairs
// within a community share a saving with probability IntraDensity, plans
// across a *linked* community pair with probability CrossDensity, and never
// otherwise. Saving values and plan costs are uniform in their ranges.
func GenerateDAGSweep(cfg DAGSweepConfig) (*DAGInstance, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Contiguous near-equal blocks: the first Queries mod Communities
	// blocks take one extra query.
	comms := make([][]int, cfg.Communities)
	communityOf := make([]int, cfg.Queries)
	q := 0
	base, extra := cfg.Queries/cfg.Communities, cfg.Queries%cfg.Communities
	for c := range comms {
		sz := base
		if c < extra {
			sz++
		}
		for i := 0; i < sz; i++ {
			comms[c] = append(comms[c], q)
			communityOf[q] = c
			q++
		}
	}
	planCosts := make([][]float64, cfg.Queries)
	for q := range planCosts {
		costs := make([]float64, cfg.PPQ)
		for i := range costs {
			costs[i] = cfg.CostLow + rng.Float64()*(cfg.CostHigh-cfg.CostLow)
		}
		planCosts[q] = costs
	}
	linked := make(map[[2]int]bool, len(cfg.CommunityPairs))
	for _, pr := range cfg.CommunityPairs {
		linked[pr] = true
	}
	savings := sampleSavings(rng, cfg.Queries, cfg.PPQ, cfg.SavingLow, cfg.SavingHigh, func(q1, q2 int) float64 {
		switch c1, c2 := communityOf[q1], communityOf[q2]; {
		case c1 == c2:
			return cfg.IntraDensity
		case linked[[2]int{c1, c2}]:
			return cfg.CrossDensity
		}
		return 0
	})
	p, err := mqo.NewProblem(planCosts, savings)
	if err != nil {
		return nil, err
	}
	p.Name = fmt.Sprintf("dagsweep-q%d-ppq%d-c%d-e%d-s%d", cfg.Queries, cfg.PPQ, cfg.Communities, len(cfg.CommunityPairs), cfg.Seed)
	return &DAGInstance{Problem: p, Communities: comms, Pairs: cfg.CommunityPairs}, nil
}
