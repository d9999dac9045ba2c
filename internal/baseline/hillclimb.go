package baseline

import (
	"context"
	"math/rand"

	"incranneal/internal/mqo"
)

// HillClimb runs the multi-start hill-climbing heuristic in the style of
// Dokeroglu et al. (2015): from a random valid plan selection, repeatedly
// apply the best single-query plan re-assignment until no move improves the
// cost, then restart; the best local optimum across restarts wins.
// Options.MaxIterations bounds the total number of evaluated moves
// (default 200,000).
func HillClimb(ctx context.Context, p *mqo.Problem, opt Options) (*Result, error) {
	budget := opt.MaxIterations
	if budget <= 0 {
		budget = 200000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	var best *mqo.Solution
	bestCost := 0.0
	iterations := 0
	for iterations < budget && ctx.Err() == nil {
		e := newEvaluator(p, randomSolution(p, rng))
		for iterations < budget && ctx.Err() == nil {
			bestQ, bestPl, bestDelta := -1, -1, 0.0
			for q := 0; q < p.NumQueries(); q++ {
				cur := e.selected[q]
				for _, pl := range p.Plans(q) {
					if pl == cur {
						continue
					}
					iterations++
					if d := e.swapDelta(q, pl); d < bestDelta {
						bestQ, bestPl, bestDelta = q, pl, d
					}
				}
			}
			if bestQ < 0 {
				break // local optimum
			}
			e.swap(bestQ, bestPl)
		}
		if best == nil || e.cost < bestCost {
			best, bestCost = e.solution(), e.cost
		}
	}
	return &Result{Solution: best, Cost: bestCost, Iterations: iterations}, nil
}

// randomSolution draws a uniformly random valid plan selection.
func randomSolution(p *mqo.Problem, rng *rand.Rand) *mqo.Solution {
	s := mqo.NewSolution(p)
	for q := 0; q < p.NumQueries(); q++ {
		plans := p.Plans(q)
		s.Selected[q] = plans[rng.Intn(len(plans))]
	}
	return s
}
