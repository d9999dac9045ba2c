// Package baseline implements the conventional MQO methods the paper
// compares against: multi-start hill climbing (Dokeroglu et al. 2015), a
// genetic algorithm (Bayir et al. 2007, JGAP-style defaults), and an exact
// branch-and-bound solver usable as a test oracle on small instances.
package baseline

import "incranneal/internal/mqo"

// Options budgets a baseline run.
type Options struct {
	// MaxIterations bounds the search effort (meaning per algorithm:
	// restarts×moves for hill climbing, generations for the genetic
	// algorithm). Zero uses a per-algorithm default.
	MaxIterations int
	// Seed makes the run deterministic.
	Seed int64
}

// Result is a baseline outcome.
type Result struct {
	Solution *mqo.Solution
	Cost     float64
	// Iterations actually performed (algorithm-specific unit).
	Iterations int
}

// evaluator maintains a mutable plan selection with O(degree) cost deltas,
// shared by the local-search baselines.
type evaluator struct {
	p        *mqo.Problem
	selected []int // per query, global plan index
	isSel    []bool
	cost     float64
}

func newEvaluator(p *mqo.Problem, sol *mqo.Solution) *evaluator {
	e := &evaluator{
		p:        p,
		selected: append([]int(nil), sol.Selected...),
		isSel:    make([]bool, p.NumPlans()),
	}
	for _, pl := range e.selected {
		if pl != mqo.Unassigned {
			e.isSel[pl] = true
		}
	}
	e.cost = sol.Cost(p)
	return e
}

// swapDelta returns the cost change of re-assigning query q from its
// current plan to plan newPl (which must belong to q).
func (e *evaluator) swapDelta(q, newPl int) float64 {
	old := e.selected[q]
	if old == newPl {
		return 0
	}
	delta := e.p.Cost(newPl) - e.p.Cost(old)
	for _, s := range e.p.SavingsOf(old) {
		other := s.P1
		if other == old {
			other = s.P2
		}
		if e.isSel[other] {
			delta += s.Value // lose this saving
		}
	}
	for _, s := range e.p.SavingsOf(newPl) {
		other := s.P1
		if other == newPl {
			other = s.P2
		}
		if other != old && e.isSel[other] {
			delta -= s.Value // gain this saving
		}
	}
	return delta
}

// swap applies the re-assignment of query q to plan newPl.
func (e *evaluator) swap(q, newPl int) {
	delta := e.swapDelta(q, newPl)
	old := e.selected[q]
	e.isSel[old] = false
	e.isSel[newPl] = true
	e.selected[q] = newPl
	e.cost += delta
}

func (e *evaluator) solution() *mqo.Solution {
	return &mqo.Solution{Selected: append([]int(nil), e.selected...)}
}
