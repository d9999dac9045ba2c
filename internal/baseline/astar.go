package baseline

import (
	"container/heap"
	"context"
	"fmt"

	"incranneal/internal/mqo"
)

// AStar solves MQO optimally with best-first search over per-query plan
// assignments, in the tradition of Sellis (1988) and Cosar et al. (1993):
// the paper cites A*-style methods as the way to obtain optimal solutions
// for *small* problems, with optimisation times exploding as dimensions
// grow — which is what motivates the annealing approach. Queries are
// assigned in index order; the admissible heuristic adds the cheapest
// remaining plan per query and assumes every still-obtainable saving is
// realised, so the first expanded goal is optimal.
//
// Options.MaxIterations bounds node expansions (default 1,000,000);
// exhausting the budget returns an error rather than a sub-optimal result,
// since the method's only use is exact solving.
func AStar(ctx context.Context, p *mqo.Problem, opt Options) (*Result, error) {
	budget := opt.MaxIterations
	if budget <= 0 {
		budget = 1000000
	}
	n := p.NumQueries()
	suffixMin, savingsTail := admissibleBound(p)
	h := func(depth int) float64 { return suffixMin[depth] - savingsTail[depth] }

	open := &nodeHeap{}
	heap.Init(open)
	heap.Push(open, &searchNode{f: h(0)})
	expansions := 0
	for open.Len() > 0 {
		if expansions >= budget {
			return nil, fmt.Errorf("baseline: A* exceeded %d expansions (the scaling wall the paper describes)", budget)
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("baseline: A* interrupted after %d expansions", expansions)
		}
		node := heap.Pop(open).(*searchNode)
		if node.depth == n {
			sol := mqo.NewSolution(p)
			for nd := node; nd.parent != nil; nd = nd.parent {
				sol.Selected[nd.depth-1] = nd.plan
			}
			return &Result{Solution: sol, Cost: node.g, Iterations: expansions}, nil
		}
		expansions++
		q := node.depth
		for _, pl := range p.Plans(q) {
			delta := p.Cost(pl)
			for _, s := range p.SavingsOf(pl) {
				other := s.P1
				if other == pl {
					other = s.P2
				}
				if node.selects(other) {
					delta -= s.Value
				}
			}
			g := node.g + delta
			heap.Push(open, &searchNode{
				parent: node,
				plan:   pl,
				depth:  q + 1,
				g:      g,
				f:      g + h(q+1),
			})
		}
	}
	return nil, fmt.Errorf("baseline: A* exhausted the search space without a goal (invalid problem)")
}

// searchNode is one partial assignment on the A* frontier; the parent
// chain stores the selected plans, avoiding per-node copies.
type searchNode struct {
	parent *searchNode
	plan   int
	depth  int
	g, f   float64
}

// selects reports whether the node's assignment chain contains plan.
func (nd *searchNode) selects(plan int) bool {
	for cur := nd; cur.parent != nil; cur = cur.parent {
		if cur.plan == plan {
			return true
		}
	}
	return false
}

type nodeHeap []*searchNode

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*searchNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
