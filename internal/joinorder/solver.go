package joinorder

import (
	"context"
	"fmt"
	"math"
	"sort"

	"incranneal/internal/encoding"
	"incranneal/internal/sa"
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
	// classical simulated annealing.
	Solver solver.Solver
	// Runs and Sweeps budget each bisection solve.
	Runs, Sweeps int
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
//  2. Recursively bisect the graph with the same annealer-backed weighted
//     graph-partitioning QUBO as the MQO pipeline (Sec. 4.1.2) until each
//     group fits the exact sub-solver.
//  3. Derive the total order incrementally: partitions are ordered one
//     after another, each continuing from the global prefix so that
//     cross-partition predicates to already-joined relations steer the
//     sub-ordering — the analogue of DSS.
func Solve(ctx context.Context, g *QueryGraph, opt Options) (*Result, error) {
	groups, cut, err := partitionRelations(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	// Largest groups first, mirroring the MQO pipeline's anchoring.
	sort.SliceStable(groups, func(i, j int) bool { return len(groups[i]) > len(groups[j]) })
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

// partitionRelations recursively bisects the relation set to the capacity,
// reusing the MQO pipeline's weighted bisection encoding.
func partitionRelations(ctx context.Context, g *QueryGraph, opt Options) ([][]int, float64, error) {
	capacity := opt.capacity()
	dev := opt.Solver
	if dev == nil {
		dev = &sa.Solver{}
	}
	importance := func(i, j int) float64 {
		s := g.Selectivity(i, j)
		if s >= 1 {
			return 0
		}
		return -math.Log10(s)
	}
	var groups [][]int
	var cut float64
	seed := opt.Seed
	var recurse func(rels []int) error
	recurse = func(rels []int) error {
		if len(rels) <= capacity {
			groups = append(groups, rels)
			return nil
		}
		weights := make([]float64, len(rels))
		for i := range weights {
			weights[i] = 1
		}
		var edges []encoding.WeightedEdge
		for i := 0; i < len(rels); i++ {
			for j := i + 1; j < len(rels); j++ {
				if w := importance(rels[i], rels[j]); w > 0 {
					edges = append(edges, encoding.WeightedEdge{U: i, V: j, Weight: w})
				}
			}
		}
		enc, err := encoding.EncodePartition(weights, edges)
		if err != nil {
			return err
		}
		seed++
		res, err := dev.Solve(ctx, solver.Request{Model: enc.Model, Runs: opt.Runs, Sweeps: opt.Sweeps, Seed: seed})
		if err != nil {
			return err
		}
		var l1, l2 []int
		if best, ok := res.Best(); ok {
			l1, l2, err = enc.Decode(best.Assignment)
			if err != nil {
				return err
			}
		}
		if len(l1) == 0 || len(l2) == 0 {
			half := len(rels) / 2
			l1, l2 = l1[:0], l2[:0]
			for i := range rels {
				if i < half {
					l1 = append(l1, i)
				} else {
					l2 = append(l2, i)
				}
			}
		}
		// Post-processing (the JO analogue of Algorithm 1): annealers
		// freeze into one of many balanced cuts, so shift relations to the
		// side their predicates conform to, in several parses and both
		// orientations, keeping each side at a quarter of the subset.
		minSize := len(rels) / 4
		if minSize < 1 {
			minSize = 1
		}
		l1, l2 = refineBest(importance, rels, l1, l2, 4, minSize)
		in1 := make([]bool, len(rels))
		for _, li := range l1 {
			in1[li] = true
		}
		var crossing float64
		for _, e := range edges {
			if in1[e.U] != in1[e.V] {
				crossing += e.Weight
			}
		}
		cut += crossing
		toGlobal := func(local []int) []int {
			out := make([]int, len(local))
			for i, li := range local {
				out[i] = rels[li]
			}
			sort.Ints(out)
			return out
		}
		if err := recurse(toGlobal(l1)); err != nil {
			return err
		}
		return recurse(toGlobal(l2))
	}
	if err := recurse(allRelations(g)); err != nil {
		return nil, 0, err
	}
	return groups, cut, nil
}

// refineBest runs conformance refinement in both orientations and keeps
// the split with the lower cross-importance, mirroring the MQO pipeline's
// PostProcessBest.
func refineBest(importance func(i, j int) float64, rels []int, l1, l2 []int, parses, minSize int) ([]int, []int) {
	cutOf := func(a, b []int) float64 {
		var c float64
		for _, i := range a {
			for _, j := range b {
				c += importance(rels[i], rels[j])
			}
		}
		return c
	}
	a1, a2 := refine(importance, rels, l1, l2, parses, minSize)
	b2, b1 := refine(importance, rels, l2, l1, parses, minSize)
	if cutOf(a1, a2) <= cutOf(b1, b2) {
		return a1, a2
	}
	return b1, b2
}

// refine shifts relations from part1 to part2 whenever their accumulated
// predicate importance to part2 exceeds that to their own side, repeating
// for the given number of parses and never shrinking part1 below minSize.
func refine(importance func(i, j int) float64, rels []int, part1, part2 []int, parses, minSize int) ([]int, []int) {
	p1 := append([]int(nil), part1...)
	p2 := append([]int(nil), part2...)
	conf := func(li int, side []int) float64 {
		var c float64
		for _, lj := range side {
			if lj != li {
				c += importance(rels[li], rels[lj])
			}
		}
		return c
	}
	for parse := 0; parse < parses; parse++ {
		moved := false
		snapshot := append([]int(nil), p1...)
		for _, li := range snapshot {
			if len(p1) <= minSize {
				break
			}
			if conf(li, p1) < conf(li, p2) {
				for k, v := range p1 {
					if v == li {
						p1 = append(p1[:k], p1[k+1:]...)
						break
					}
				}
				p2 = append(p2, li)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return p1, p2
}
