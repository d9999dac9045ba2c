package baseline

import (
	"context"
	"fmt"

	"incranneal/internal/mqo"
)

// MaxExactQueries bounds the instance size Exact accepts; beyond this the
// branch-and-bound blow-up makes exact solving pointless (the paper notes
// A*-style optimal methods scale exponentially, motivating annealing).
const MaxExactQueries = 24

// Exact computes a provably optimal MQO solution by depth-first
// branch-and-bound over queries, pruning with an admissible lower bound
// (cheapest remaining plan per query minus all savings still obtainable).
// It exists as the ground-truth oracle for tests and small-instance
// comparisons; Options.MaxIterations is ignored.
func Exact(ctx context.Context, p *mqo.Problem, opt Options) (*Result, error) {
	if p.NumQueries() > MaxExactQueries {
		return nil, fmt.Errorf("baseline: exact solver limited to %d queries, got %d", MaxExactQueries, p.NumQueries())
	}
	n := p.NumQueries()
	suffixMin, savingsTail := admissibleBound(p)

	best := mqo.GreedySolution(p)
	bestCost := best.Cost(p)
	cur := mqo.NewSolution(p)
	isSel := make([]bool, p.NumPlans())
	nodes := 0

	var dfs func(q int, partial float64)
	dfs = func(q int, partial float64) {
		nodes++
		if nodes%4096 == 0 {
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
		if q == n {
			if partial < bestCost {
				bestCost = partial
				best = cur.Clone()
			}
			return
		}
		// Admissible bound: remaining plans at their cheapest, every
		// remaining saving realised.
		if partial+suffixMin[q]-savingsTail[q] >= bestCost {
			return
		}
		for _, pl := range p.Plans(q) {
			delta := p.Cost(pl)
			for _, s := range p.SavingsOf(pl) {
				other := s.P1
				if other == pl {
					other = s.P2
				}
				if isSel[other] {
					delta -= s.Value
				}
			}
			cur.Selected[q] = pl
			isSel[pl] = true
			dfs(q+1, partial+delta)
			isSel[pl] = false
			cur.Selected[q] = mqo.Unassigned
		}
	}
	dfs(0, 0)
	return &Result{Solution: best, Cost: bestCost, Iterations: nodes}, nil
}

// admissibleBound builds the tables of the admissible lower bound that
// Exact and AStar share, for queries assigned in index order: suffixMin[q]
// sums the cheapest plan of every query ≥ q, and savingsTail[q] is the
// total value of savings whose later query (the max of the two endpoints'
// queries) is ≥ q — an upper bound on savings still obtainable once
// queries 0..q-1 are fixed. Both have NumQueries+1 entries, zero at the
// end.
func admissibleBound(p *mqo.Problem) (suffixMin, savingsTail []float64) {
	n := p.NumQueries()
	suffixMin = make([]float64, n+1)
	for q := n - 1; q >= 0; q-- {
		cheapest := p.Cost(p.Plans(q)[0])
		for _, pl := range p.Plans(q) {
			if c := p.Cost(pl); c < cheapest {
				cheapest = c
			}
		}
		suffixMin[q] = suffixMin[q+1] + cheapest
	}
	savingsTail = make([]float64, n+1)
	for _, s := range p.Savings() {
		later := p.QueryOf(s.P2)
		if q1 := p.QueryOf(s.P1); q1 > later {
			later = q1
		}
		savingsTail[later] += s.Value
	}
	for q := n - 1; q >= 0; q-- {
		savingsTail[q] += savingsTail[q+1]
	}
	return suffixMin, savingsTail
}
