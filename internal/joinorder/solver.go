package joinorder

import (
	"context"
	"fmt"
	"math"

	"incranneal/internal/encoding"
	"incranneal/internal/partition"
	"incranneal/internal/solver"
)

// GreedyOrder is the GOO-style baseline: repeatedly join the relation with
// the cheapest marginal C_out contribution. It scales to any size and is
// the conventional-hardware comparison point for the partitioned pipeline.
func GreedyOrder(g *QueryGraph) (Order, float64) {
	ps := newPrefixState(g)
	out := make(Order, 0, g.NumRelations())
	for len(out) < g.NumRelations() {
		best, bestCost := -1, 0.0
		for r := 0; r < g.NumRelations(); r++ {
			if ps.joined[r] {
				continue
			}
			c := ps.extendCost(r)
			if best < 0 || c < bestCost {
				best, bestCost = r, c
			}
		}
		ps.extend(best)
		out = append(out, best)
	}
	return out, out.Cost(g)
}

// Options configures the partitioned incremental join-ordering solver.
type Options struct {
	// Capacity is the maximum number of relations per partition — the
	// size the exact sub-solver (or a future annealer encoding) can
	// handle. Zero means 12.
	Capacity int
	// Solver minimises the partitioning-graph bisection QUBOs; nil uses
	// classical simulated annealing. A solve error fails the whole solve.
	Solver solver.Solver
	// Runs is the number of annealing runs per bisection solve.
	Runs int
	// Sweeps is the whole query's annealing budget, as in
	// partition.Options: a bisection of n of the query's N relations
	// anneals ⌈Sweeps·n/N⌉ steps per run (at least 1). Zero uses the
	// solver default for every bisection.
	Sweeps int
	// Seed makes partitioning deterministic.
	Seed int64
	// DisableSteering orders each partition independently of the global
	// prefix (the parallel-processing analogue, for ablation).
	DisableSteering bool
}

func (o Options) capacity() int {
	if o.Capacity > 0 {
		return o.Capacity
	}
	return 12
}

// Result reports a partitioned join-ordering solve.
type Result struct {
	Order Order
	Cost  float64
	// Partitions is the number of relation groups the query was split
	// into (1 when it fit the sub-solver directly).
	Partitions int
	// CutSelectivityWeight is the accumulated importance (−log₁₀ sel) of
	// predicates crossing partition boundaries — the JO analogue of the
	// discarded savings magnitude.
	CutSelectivityWeight float64
}

// Solve orders a join query of arbitrary size following the paper's
// Sec. 7 recipe:
//
//  1. Build the JO partitioning graph: one node per relation, one edge per
//     predicate, weighted by the predicate's importance −log₁₀(sel) — the
//     information lost when the partitioning crosses it.
//  2. Recursively bisect the graph with the MQO pipeline's partitioning
//     phase (partition.Split: the annealer-backed bisection QUBO of
//     Sec. 4.1.2 refined by Algorithm 1) until each group fits the exact
//     sub-solver.
//  3. Derive the total order incrementally: partitions are ordered one
//     after another, each continuing from the global prefix so that
//     cross-partition predicates to already-joined relations steer the
//     sub-ordering — the analogue of DSS.
func Solve(ctx context.Context, g *QueryGraph, opt Options) (*Result, error) {
	groups, cut, err := partitionRelations(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	ps := newPrefixState(g)
	total := make(Order, 0, g.NumRelations())
	for _, group := range groups {
		prefix := ps
		if opt.DisableSteering {
			prefix = newPrefixState(g)
		}
		ext, _, err := optimalExtension(g, prefix, group)
		if err != nil {
			return nil, err
		}
		for _, r := range ext {
			ps.extend(r)
		}
		total = append(total, ext...)
	}
	if err := total.Validate(g); err != nil {
		return nil, fmt.Errorf("joinorder: internal error: %w", err)
	}
	return &Result{Order: total, Cost: total.Cost(g), Partitions: len(groups), CutSelectivityWeight: cut}, nil
}

// partitionRelations splits the relations into groups of at most the
// capacity, largest first, through the MQO pipeline's partitioning phase:
// the relation graph has unit node weights and one edge per related pair,
// weighted by the predicates' importance −log₁₀(sel). It also returns the
// importance of the edges crossing groups.
func partitionRelations(ctx context.Context, g *QueryGraph, opt Options) ([][]int, float64, error) {
	n := g.NumRelations()
	weights := make([]float64, n)
	var edges []encoding.WeightedEdge
	for i := range weights {
		weights[i] = 1
		for j := i + 1; j < n; j++ {
			if s := g.Selectivity(i, j); s < 1 {
				edges = append(edges, encoding.WeightedEdge{U: i, V: j, Weight: -math.Log10(s)})
			}
		}
	}
	groups, err := partition.Split(ctx, partition.NewGraph(weights, edges), partition.Options{
		Capacity: opt.capacity(),
		Solver:   opt.Solver,
		Runs:     opt.Runs,
		Sweeps:   opt.Sweeps,
		Seed:     opt.Seed,
		FailFast: true,
	})
	if err != nil {
		return nil, 0, err
	}
	groupOf := make([]int, n)
	for gi, group := range groups {
		for _, r := range group {
			groupOf[r] = gi
		}
	}
	var cut float64
	for _, e := range edges {
		if groupOf[e.U] != groupOf[e.V] {
			cut += e.Weight
		}
	}
	return groups, cut, nil
}
