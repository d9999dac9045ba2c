package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solver"
)

// This file implements the wave executor, the one loop that solves, merges,
// steers and checkpoints the partial problems of every partitioned
// strategy. Algorithm 2 processes partial problems strictly sequentially,
// but dynamic search steering (Algorithm 3) only couples two partial
// problems when one's discarded savings have an endpoint plan inside the
// other — that is the only channel through which solving one partial
// problem can change another's costs. The executor makes that data
// dependency explicit as a DAG, solves independent partial problems
// concurrently in topological waves, and applies the DSS cost adjustments
// at the wave boundaries in a fixed, index-sorted order, so the final
// solution, its cost and the re-applied savings total are bit-identical to
// the sequential chain at any Options.Parallelism. The chain itself is the
// one-worker case: at Parallelism -1 the waves run one partial problem at a
// time. Without DSS the graph is edgeless and every partial problem solves
// in one wave — the parallel strategy.
//
// Why the results coincide: in the sequential chain, a discarded saving of
// sub j with its other endpoint plan owned by sub k < j is applied by the
// DSS pass immediately after sub k merges, iff sub k selected that plan —
// and merged selections never change afterwards, so later passes can never
// apply it either. Sub j's cost adjustments therefore depend only on the
// solutions of its DAG predecessors, applied in ascending predecessor
// order; savings whose other endpoint is owned by a sub k > j are never
// applied to j sequentially, which is why applyEdge filters on the owning
// sub of the selected endpoint rather than on mere membership in the
// incumbent solution (under DAG order, sub k > j may already have merged).

// DAGStats describes the DSS dependency graph of one partitioned solve.
type DAGStats struct {
	// Nodes is the number of partial problems, Edges the number of
	// dependency pairs (sub i, sub j) sharing at least one discarded
	// saving.
	Nodes, Edges int
	// Waves is the number of topological waves — also the critical path
	// length in partial problems, since every wave depends on its
	// predecessor. Width is the widest wave: the maximum concurrency the
	// schedule exposes.
	Waves, Width int
	// Density is Edges over the possible n·(n−1)/2.
	Density float64
}

// dssDAG is the dependency graph the executor runs. Node indices are
// partial-problem indices; all edges point from lower to higher index, the
// direction the sequential chain would have propagated the information, so
// the graph is acyclic by construction.
type dssDAG struct {
	// preds[j] lists the ascending sub indices k < j owning the other
	// endpoint of at least one of subs[j].Discarded.
	preds [][]int
	// waves groups node indices (ascending within a wave) by topological
	// depth: wave 0 has no predecessors, wave w+1 depends only on waves
	// <= w.
	waves [][]int
	// planSub[pl] is the sub index owning parent plan pl, -1 if none.
	planSub []int
	edges   int
	width   int
	density float64
}

// buildDSSDAG constructs the dependency graph over the partial problems of
// p. When noEdges is set (DSS off) the graph is edgeless: no savings will
// ever be re-applied, so every partial problem is independent and the
// schedule is a single maximally wide wave.
func buildDSSDAG(p *mqo.Problem, subs []*mqo.SubProblem, noEdges bool) *dssDAG {
	n := len(subs)
	d := &dssDAG{
		preds:   make([][]int, n),
		planSub: mqo.PlanOwners(p, subs),
	}
	if !noEdges {
		for j, sub := range subs {
			seen := make([]bool, j)
			for _, s := range sub.Discarded {
				other := s.P1
				if _, in := sub.LocalPlan(s.P1); in {
					other = s.P2
				}
				if k := d.planSub[other]; k >= 0 && k < j && !seen[k] {
					seen[k] = true
					d.preds[j] = append(d.preds[j], k)
				}
			}
			sort.Ints(d.preds[j])
			d.edges += len(d.preds[j])
		}
	}
	if n > 1 {
		d.density = float64(d.edges) / float64(n*(n-1)/2)
	}
	// Topological depth in one ascending pass: every predecessor has a
	// smaller index, so its depth is already known.
	depth := make([]int, n)
	for j := 0; j < n; j++ {
		for _, k := range d.preds[j] {
			if depth[k]+1 > depth[j] {
				depth[j] = depth[k] + 1
			}
		}
		for len(d.waves) <= depth[j] {
			d.waves = append(d.waves, nil)
		}
		d.waves[depth[j]] = append(d.waves[depth[j]], j)
	}
	for _, w := range d.waves {
		if len(w) > d.width {
			d.width = len(w)
		}
	}
	return d
}

// stats exports the graph shape.
func (d *dssDAG) stats() *DAGStats {
	return &DAGStats{
		Nodes: len(d.preds), Edges: d.edges,
		Waves: len(d.waves), Width: d.width,
		Density: d.density,
	}
}

// waveLabel names the w-th wave in trace events.
func waveLabel(w int) string { return fmt.Sprintf("wave%02d", w) }

// applyEdge applies the DSS adjustments flowing over the edge pred → node:
// every pending discarded saving of sub whose other endpoint plan is owned
// by pred and selected is consumed, reducing the local plan cost
// (Algorithm 3). The pending list is compacted in place, preserving order.
// Returns the number and the sum of the applied savings.
func applyEdge(selected []bool, planSub []int, pred int, sub *mqo.SubProblem, pending *[]mqo.Saving) (int, float64) {
	var n int
	var sum float64
	kept := (*pending)[:0]
	for _, s := range *pending {
		plan, other := -1, -1
		if _, in := sub.LocalPlan(s.P1); in {
			plan, other = s.P1, s.P2
		} else if _, in := sub.LocalPlan(s.P2); in {
			plan, other = s.P2, s.P1
		}
		if plan >= 0 && planSub[other] == pred && selected[other] {
			sub.AdjustCost(plan, s.Value)
			n++
			sum += s.Value
			continue
		}
		kept = append(kept, s)
	}
	*pending = kept
	return n, sum
}

// reappliedTotal sums the savings DSS re-applied over the graph's edges in
// the sequential chain's float association. The chain's pass after merging
// sub k applies exactly the discarded savings whose other endpoint sub k
// owns and selected, scanning the later subs in ascending order and each
// pending list in order, into one subtotal per pass that it adds to the
// running total. Merged selections never change, so the final selection
// decides every edge, and one scan of the original Discarded lists in that
// order reproduces each subtotal bit for bit.
func reappliedTotal(dag *dssDAG, subs []*mqo.SubProblem, selected []bool) float64 {
	if dag.edges == 0 {
		return 0
	}
	pass := make([]float64, len(subs))
	for j, sub := range subs {
		for _, s := range sub.Discarded {
			other := s.P1
			if _, in := sub.LocalPlan(s.P1); in {
				other = s.P2
			}
			if k := dag.planSub[other]; k >= 0 && k < j && selected[other] {
				pass[k] += s.Value
			}
		}
	}
	var total float64
	for _, v := range pass {
		total += v
	}
	return total
}

// runWaves executes the wave schedule: each wave's partial problems solve
// concurrently on a splitWorkers share of the budget, then a serial barrier
// merges the wave's solutions in ascending index order and applies the
// next wave's join edges (node-ascending, predecessor-ascending). Every
// partial problem materialises its encoding just before it anneals, after
// all of its joins have adjusted its costs (Algorithm 2's order).
// It mutates ttlSol, pending and tm, and returns the performed sweeps, the
// re-applied savings magnitude and the degradations in sub index order.
func runWaves(ctx context.Context, p *mqo.Problem, subs []*mqo.SubProblem, preps []*encoding.PreparedMQO, warms [][]int8, dag *dssDAG, pending [][]mqo.Saving, ttlSol *mqo.Solution, tm *PhaseTimings, opt Options, rec *ckptRecorder, rs *resumeState) (int, float64, []Degradation, error) {
	sink := obs.FromContext(ctx)
	n := len(subs)
	workers := parallelism(opt)
	selected := make([]bool, p.NumPlans())
	globals := make([]*mqo.Solution, n)
	sweepCounts := make([]int, n)
	subTms := make([]subTimings, n)
	degs := make([]*Degradation, n)
	errs := make([]error, n)
	// solveNode encodes and anneals (or, on resume, replays) one partial
	// problem on a share of the worker budget. It only writes node-indexed
	// state, so the nodes of one wave run concurrently without locking.
	solveNode := func(waveCtx context.Context, node, share int) error {
		sub := subs[node]
		subCtx := waveCtx
		if sink.Enabled() {
			subCtx = obs.WithLabel(waveCtx, subLabel(node))
		}
		var subSpan *obs.Span
		subCtx, subSpan = sink.StartSpanIndexed(subCtx, "sub", node)
		defer subSpan.End()
		if dc := rs.sub(node); dc != nil {
			// Resume replay: reinstall the checkpointed selections instead
			// of annealing. The merge barrier and join edges treat the
			// replayed solution exactly like a fresh one, so the schedule
			// stays bit-identical.
			best, err := dc.localSolution(sub)
			if err != nil {
				return err
			}
			global, err := sub.ToGlobal(p, best)
			if err != nil {
				return err
			}
			globals[node] = global
			sweepCounts[node] = dc.Sweeps
			if dc.Degraded != nil {
				d := *dc.Degraded
				degs[node] = &d
			}
			if sink.Enabled() {
				sink.EmitCtx(subCtx, obs.Event{Name: "replay", Label: subLabel(node), Sweeps: dc.Sweeps})
			}
			return nil
		}
		_, ph := obs.StartPhase(subCtx, "encode")
		enc := preps[node].Encoding()
		encodeTime := ph.End(obs.Event{N: 1})
		best, performed, st, err := solveEncoded(subCtx, opt.Device, enc, opt.Runs, opt.partitionSweeps(n, node), opt.Seed+int64(1000+node), warms[node], share)
		if err != nil {
			if opt.FailFast || isPipelineError(err) {
				return err
			}
			// Graceful degradation: the device is gone for this partial
			// problem, but the incumbent and the remaining sub-problems are
			// fine. Complete this one greedily on its DSS-adjusted costs.
			var d Degradation
			best, d = degrade(subCtx, sub.Local, node, opt.Device.Name(), err)
			degs[node] = &d
		}
		global, err := sub.ToGlobal(p, best)
		if err != nil {
			return err
		}
		globals[node] = global
		sweepCounts[node] = performed
		st.encode = encodeTime
		subTms[node] = st
		return nil
	}
	merged := 0
	for w, wave := range dag.waves {
		// One phase per topological wave; sub spans hang off its span,
		// indexed by node so ids never depend on worker interleaving.
		waveCtx := ctx
		if sink.Enabled() {
			waveCtx = obs.WithLabel(ctx, waveLabel(w))
		}
		waveCtx, ph := obs.StartPhaseIndexed(waveCtx, "wave", w)
		split := splitWorkers(workers, len(wave))
		solver.ForEachRun(len(wave), workers, func(wi int) {
			errs[wave[wi]] = solveNode(waveCtx, wave[wi], split[wi])
		})
		// The lowest failing node's error wins, whatever order the wave's
		// solves finished in.
		for _, node := range wave {
			if errs[node] != nil {
				return 0, 0, nil, errs[node]
			}
		}
		// Serial barrier, fixed order: merge ascending, then apply the
		// next wave's joins node-ascending / predecessor-ascending. All of
		// a node's predecessors have merged by its wave boundary, so every
		// edge fires exactly once, with final selections.
		mergeStart := time.Now()
		var cost float64
		for _, node := range wave {
			if err := ttlSol.Merge(globals[node]); err != nil {
				return 0, 0, nil, err
			}
			for _, q := range subs[node].Queries {
				if pl := ttlSol.Selected[q]; pl != mqo.Unassigned {
					selected[pl] = true
				}
			}
			merged++
			if sink.Enabled() || opt.onMerge != nil {
				// Incumbent global cost after each merge: Cost skips
				// unassigned queries, so these points trace the solve's
				// convergence at partial-problem granularity.
				cost = ttlSol.Cost(p)
				if sink.Enabled() {
					sink.EmitCtx(waveCtx, obs.Event{Name: "merge", Label: subLabel(node), N: merged, Value: cost})
				}
				if opt.onMerge != nil {
					opt.onMerge(Incumbent{Sub: node, Merged: merged, Cost: cost})
				}
			}
			// An interrupted device solve returns its truncated best-so-far
			// without error, which must not enter a checkpoint: replaying it
			// would diverge from an uninterrupted run. Subs of a cancelled
			// wave stay unrecorded and simply re-solve after resume.
			// Replayed subs carry exact checkpoint values, so they record
			// regardless.
			if waveCtx.Err() == nil || rs.sub(node) != nil {
				rec.record(node, subs[node], globals[node], sweepCounts[node], degs[node])
			}
		}
		tm.Decode += time.Since(mergeStart)
		if w+1 < len(dag.waves) && dag.edges > 0 {
			_, dss := obs.StartPhase(waveCtx, "dss")
			var waveApplied float64
			adjusted := 0
			for _, node := range dag.waves[w+1] {
				joined := false
				for _, pred := range dag.preds[node] {
					applied, sum := applyEdge(selected, dag.planSub, pred, subs[node], &pending[node])
					if applied == 0 {
						continue
					}
					if !joined {
						joined = true
						adjusted++
					}
					waveApplied += sum
					if sink.Enabled() {
						sink.EmitCtx(waveCtx, obs.Event{Name: "join", Label: subLabel(node), Run: pred, N: applied, Value: sum})
					}
				}
			}
			tm.DSS += dss.End(obs.Event{Value: waveApplied, N: adjusted})
			if reg := sink.Metrics(); reg != nil {
				reg.Counter("dss.passes").Add(1)
				reg.Counter("dss.applied").Add(waveApplied)
			}
		}
		ph.End(obs.Event{N: len(wave), Run: workers, Value: cost})
	}
	sweeps := 0
	for i := range subs {
		sweeps += sweepCounts[i]
		tm.Encode += subTms[i].encode
		tm.Anneal += subTms[i].anneal
		tm.Decode += subTms[i].decode
	}
	var outDegs []Degradation
	for _, d := range degs {
		if d != nil {
			outDegs = append(outDegs, *d)
		}
	}
	return sweeps, reappliedTotal(dag, subs, selected), outDegs, nil
}
