package partition

import (
	"context"
	"fmt"
	"math"
	"sort"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
)

// Options configures the partitioning phase.
type Options struct {
	// Capacity bounds the node weight of every set the phase returns: for
	// an MQO problem, the target device's variable capacity, since a
	// partial problem needs one QUBO variable per execution plan. A single
	// node heavier than Capacity forms a set of its own. Required.
	Capacity int
	// Solver is the quantum(-inspired) device used to minimise the
	// bisection QUBOs — the paper's second use of the annealer. When nil,
	// or when a graph to bisect has more nodes than the device capacity,
	// classical simulated annealing is used for that graph.
	Solver solver.Solver
	// Runs is the number of annealing runs per bisection solve; zero uses
	// the solver default.
	Runs int
	// Sweeps is the whole graph's annealing budget: for an MQO problem p,
	// the one an unpartitioned solve of p would get. A bisection of n
	// nodes anneals ⌈Sweeps·n/W⌉ steps per run (at least 1), where W is
	// the graph's total node weight (NumPlans(p) for an MQO problem): an
	// unpartitioned solve's steps per variable. Zero uses the solver
	// default for every bisection.
	Sweeps int
	// Seed makes partitioning deterministic.
	Seed int64
	// PostProcessParses is the numParses parameter of Algorithm 1; zero
	// uses the paper's value of 4 and a negative value disables
	// post-processing (ablation).
	PostProcessParses int
	// Parallelism forwards to the bisection solves' Request.Parallelism,
	// bounding each device's run-level worker pool; zero means GOMAXPROCS.
	Parallelism int
	// FailFast aborts the partitioning phase on the first bisection solve
	// error instead of degrading that bisection to the deterministic
	// weight-balancing split.
	FailFast bool
}

func (o *Options) parses() int {
	switch {
	case o.PostProcessParses < 0:
		return 0
	case o.PostProcessParses == 0:
		return 4
	default:
		return o.PostProcessParses
	}
}

// minSize bounds the post-processing shrinkage: part1 never drops below a
// quarter of the subset's n nodes, and never below one.
func (o *Options) minSize(n int) int { return max(1, n/4) }

// Result is the outcome of partitioning an MQO problem.
type Result struct {
	// SubProblems are the capacity-conforming partial problems, ordered by
	// descending plan count so incremental processing anchors the global
	// solution on the largest partial solution first.
	SubProblems []*mqo.SubProblem
	// QuerySets holds the parent-problem query indices of each partial
	// problem, aligned with SubProblems.
	QuerySets [][]int
	// Bisections counts annealer-backed graph bisections performed.
	Bisections int
	// DiscardedSavings is the total magnitude of savings crossing
	// partition boundaries — the information DSS later re-applies. Each
	// crossing saving is counted once.
	DiscardedSavings float64
	// DegradedBisections counts bisections whose annealer solve failed (or
	// returned no samples) and that fell back to the deterministic
	// weight-balancing split instead of aborting the phase.
	DegradedBisections int
}

// Partition splits p into partial problems that each fit the device
// capacity, using annealer-backed weighted graph bisection (Sec. 4.1.2)
// refined by Algorithm 1, applied recursively (Sec. 4.1.2: "we may
// recursively repeat this process until none of them exceed the capacity
// limit"). It is Refit of the single set of all queries.
func Partition(ctx context.Context, p *mqo.Problem, opt Options) (*Result, error) {
	return Refit(ctx, p, [][]int{allNodes(p.NumQueries())}, opt)
}

// Split partitions a bare node-weighted graph the way Partition partitions
// an MQO problem's graph: it recursively bisects g until every node set's
// weight fits opt.Capacity or the set holds a single node, and returns the
// sets heaviest first. Split(ctx, BuildGraph(p), opt) returns
// Partition(ctx, p, opt).QuerySets.
func Split(ctx context.Context, g *Graph, opt Options) ([][]int, error) {
	res, err := divide(ctx, g, [][]int{allNodes(g.NumNodes())}, opt)
	if err != nil {
		return nil, err
	}
	return res.QuerySets, nil
}

// Refit re-validates an existing partitioning of p — typically the
// cross-solve cache's partitioning of a recurring problem structure, or a
// delta-migrated one — against the current capacity: conforming query sets
// are kept verbatim with no annealer work, and only sets whose plan weight
// outgrew the capacity are recursively re-bisected, exactly as Partition
// would split them. querySets must cover every query of p exactly once
// (violations return an error — this is also the safety net that turns a
// structure-fingerprint collision into a recoverable failure instead of a
// wrong answer). For a partitioning Partition itself produced on a problem
// with unchanged structure and unchanged capacity, Refit reproduces
// Partition's Result bit-identically: every set already conforms, and the
// stable descending-weight re-sort and parallel extraction are the same
// tail Partition runs.
func Refit(ctx context.Context, p *mqo.Problem, querySets [][]int, opt Options) (*Result, error) {
	seen := make([]bool, p.NumQueries())
	count := 0
	initial := make([][]int, len(querySets))
	for i, qs := range querySets {
		for _, q := range qs {
			if q < 0 || q >= p.NumQueries() {
				return nil, fmt.Errorf("partition: refit query %d out of range [0,%d)", q, p.NumQueries())
			}
			if seen[q] {
				return nil, fmt.Errorf("partition: refit covers query %d twice", q)
			}
			seen[q] = true
			count++
		}
		initial[i] = append([]int(nil), qs...)
	}
	if count != p.NumQueries() {
		return nil, fmt.Errorf("partition: refit covers %d of %d queries", count, p.NumQueries())
	}
	res, err := divide(ctx, BuildGraph(p), initial, opt)
	if err != nil {
		return nil, err
	}
	// Extracting partial problems is independent per query set; fan the
	// extractions out over the run-level worker pool. Results are addressed
	// by index, so the outcome is identical at any parallelism.
	res.SubProblems = make([]*mqo.SubProblem, len(res.QuerySets))
	extractErrs := make([]error, len(res.QuerySets))
	solver.ForEachRun(len(res.QuerySets), solver.Workers(opt.Parallelism), func(i int) {
		res.SubProblems[i], extractErrs[i] = mqo.Extract(p, res.QuerySets[i])
	})
	for _, err := range extractErrs {
		if err != nil {
			return nil, err
		}
	}
	// Sum each crossing saving once: every discarded saving appears in
	// exactly two sub-problems' Discarded lists.
	var total float64
	for _, sp := range res.SubProblems {
		total += sp.DiscardedMagnitude()
	}
	res.DiscardedSavings = total / 2
	if reg := obs.FromContext(ctx).Metrics(); reg != nil {
		reg.Gauge("partition.subproblems").Set(float64(len(res.SubProblems)))
		reg.Counter("partition.bisections").Add(float64(res.Bisections))
		reg.Counter("partition.discarded").Add(res.DiscardedSavings)
	}
	return res, nil
}

// divide is the one partitioning recursion behind Partition, Refit and
// Split: it recursively bisects every initial node set whose weight
// exceeds the capacity, and returns the conforming sets in QuerySets,
// heaviest first, with the bisection counts. The i-th bisection in
// recursion order anneals with seed opt.Seed+i.
func divide(ctx context.Context, g *Graph, initial [][]int, opt Options) (*Result, error) {
	if opt.Capacity <= 0 {
		return nil, fmt.Errorf("partition: capacity must be positive, got %d", opt.Capacity)
	}
	var weight float64
	for _, w := range g.NodeWeights {
		weight += w
	}
	res := &Result{}
	seed := opt.Seed
	var recurse func(nodes []int) error
	recurse = func(nodes []int) error {
		if g.PlanWeight(nodes) <= float64(opt.Capacity) || len(nodes) == 1 {
			res.QuerySets = append(res.QuerySets, nodes)
			return nil
		}
		seed++
		bctx, ph := obs.StartPhase(ctx, "bisect")
		sp, err := bisect(bctx, g, nodes, opt, bisectionSweeps(opt.Sweeps, len(nodes), int(math.Ceil(weight))), seed)
		if err != nil {
			ph.Fail("bisect")
			return err
		}
		ph.End(obs.Event{N: len(nodes), Sweeps: sp.sweeps, Value: sp.cut, Extra: sp.imbalance})
		res.Bisections++
		if sp.degraded {
			res.DegradedBisections++
		}
		if err := recurse(sp.part1); err != nil {
			return err
		}
		return recurse(sp.part2)
	}
	for _, nodes := range initial {
		if err := recurse(nodes); err != nil {
			return nil, err
		}
	}
	// Heaviest sets first: for MQO, the incumbent solution the largest
	// partial problems seed steers all remaining solves.
	sort.SliceStable(res.QuerySets, func(i, j int) bool {
		return g.PlanWeight(res.QuerySets[i]) > g.PlanWeight(res.QuerySets[j])
	})
	return res, nil
}

// allNodes returns the node indices 0..n-1.
func allNodes(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// bisectionSweeps sizes the anneal of an n-node bisection to the whole
// graph's budget per unit of node weight: ⌈total·n/weight⌉ steps per run,
// at least 1, or 0 (the device default) when total is not positive. For an
// MQO graph the weight is the plan count, so partial problems get about
// the same steps per variable on average and every anneal of a solve is
// budgeted alike.
func bisectionSweeps(total, n, weight int) int {
	if total <= 0 {
		return 0
	}
	s := (int64(total)*int64(n) + int64(weight) - 1) / int64(weight)
	if s < 1 {
		s = 1
	}
	return int(s)
}

// split is the outcome of one bisection.
type split struct {
	// part1 and part2 are the two node sets, ascending.
	part1, part2 []int
	// sweeps is the number of steps the device performed over all runs.
	sweeps int
	// cut and imbalance are the split's cut weight and the absolute
	// difference of its parts' plan weights.
	cut, imbalance float64
	// degraded reports a failed or empty device solve that fell back to
	// the deterministic weight-balancing split.
	degraded bool
}

// bisect splits one node subset into two non-empty parts using the
// annealer on the induced partitioning graph, then post-processes with
// Algorithm 1. Every sample the device returns is post-processed (both
// orientations) and the split with the lowest cut weight is kept, the
// lower-energy sample on a tie; with post-processing disabled the
// lowest-energy sample is kept as decoded. When the device solve fails
// terminally — or returns an empty sample set — the bisection degrades to
// the deterministic weight-balancing split rather than aborting the whole
// partitioning phase, unless Options.FailFast asks for the error.
func bisect(ctx context.Context, g *Graph, queries []int, opt Options, sweeps int, seed int64) (split, error) {
	sub := g.Subgraph(queries)
	enc, err := encoding.EncodePartition(sub.NodeWeights, sub.Edges)
	if err != nil {
		return split{}, err
	}
	dev := opt.Solver
	if dev == nil || (dev.Capacity() > 0 && enc.Model.NumVariables() > dev.Capacity()) {
		// Precondition of Sec. 4.1.2: the device must hold one variable
		// per query node. Degrade to classical SA when it cannot.
		dev = &sa.Solver{}
	}
	req := solver.Request{Model: enc.Model, Runs: opt.Runs, Sweeps: sweeps, Seed: seed, Parallelism: opt.Parallelism}
	sink := obs.FromContext(ctx)
	if sink.Enabled() {
		// Distinguish the device's bisection solves from the MQO-phase
		// solves in traces.
		ctx = obs.WithLabel(ctx, "bisect")
	}
	var out split
	result, err := dev.Solve(ctx, req)
	if err != nil && opt.FailFast {
		return split{}, fmt.Errorf("partition: bisection solve: %w", err)
	}
	var samples []solver.Sample
	if err == nil {
		out.sweeps = result.Sweeps
		samples = result.Samples
	}
	parses, minSize := opt.parses(), opt.minSize(len(queries))
	if parses <= 0 && len(samples) > 1 {
		samples = samples[:1] // the ablation keeps the lowest-energy sample
	}
	// refine turns a decoded split into a candidate: Algorithm 1 on both
	// orientations, with the weight-balancing split standing in for an
	// empty side.
	refine := func(c1, c2 []int) ([]int, []int) {
		if len(c1) == 0 || len(c2) == 0 {
			c1, c2 = fallbackSplit(sub)
		}
		if parses > 0 {
			c1, c2 = PostProcessBest(sub, c1, c2, parses, minSize)
			if len(c1) == 0 || len(c2) == 0 {
				c1, c2 = fallbackSplit(sub)
			}
		}
		return c1, c2
	}
	var l1, l2 []int
	for i, s := range samples {
		c1, c2, err := enc.Decode(s.Assignment)
		if err != nil {
			return split{}, err
		}
		c1, c2 = refine(c1, c2)
		if cut := sub.CutWeight(c1, c2); i == 0 || cut < out.cut {
			l1, l2, out.cut = c1, c2, cut
		}
	}
	if len(samples) == 0 {
		// The solve failed terminally or yielded no sample: split by
		// alternating descending node weights instead of aborting the
		// phase. The split is deterministic, so the degraded pipeline
		// stays reproducible.
		out.degraded = true
		if sink.Enabled() {
			sink.Emit(obs.Event{Name: "degrade", Device: dev.Name(), Label: "bisect", N: len(queries)})
			if reg := sink.Metrics(); reg != nil {
				reg.Counter("partition.degraded").Add(1)
			}
		}
		l1, l2 = refine(nil, nil)
		out.cut = sub.CutWeight(l1, l2)
	}
	out.imbalance = math.Abs(sub.PlanWeight(l1) - sub.PlanWeight(l2))
	toGlobal := func(local []int) []int {
		res := make([]int, len(local))
		for i, l := range local {
			res[i] = queries[l]
		}
		sort.Ints(res)
		return res
	}
	out.part1, out.part2 = toGlobal(l1), toGlobal(l2)
	return out, nil
}

// fallbackSplit deterministically halves a subset by alternating
// descending node weights across the parts, guaranteeing progress when the
// annealer degenerates to an empty side.
func fallbackSplit(g *Graph) ([]int, []int) {
	order := make([]int, g.NumNodes())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if g.NodeWeights[order[a]] != g.NodeWeights[order[b]] {
			return g.NodeWeights[order[a]] > g.NodeWeights[order[b]]
		}
		return order[a] < order[b]
	})
	var p1, p2 []int
	var w1, w2 float64
	for _, v := range order {
		if w1 <= w2 {
			p1 = append(p1, v)
			w1 += g.NodeWeights[v]
		} else {
			p2 = append(p2, v)
			w2 += g.NodeWeights[v]
		}
	}
	return p1, p2
}
