package mqo

import (
	"fmt"
	"sort"
)

// SubProblem is a partial MQO problem over a subset of the queries of a
// parent problem, as produced by the partitioning phase (Sec. 4.1).
//
// The Local problem re-numbers the subset's queries and plans contiguously
// from zero; Queries and PlanGlobal map back to the parent. Savings between
// two plans inside the subset become savings of the Local problem; savings
// with exactly one endpoint inside the subset are *discarded* by the
// partitioning and recorded in Discarded so that the dynamic search steering
// phase (Algorithm 3) can re-apply them.
type SubProblem struct {
	// Local is the self-contained partial problem. Its plan costs are
	// mutable via AdjustCost to support DSS.
	Local *Problem
	// Queries maps local query index -> parent query index.
	Queries []int
	// PlanGlobal maps local plan index -> parent plan index.
	PlanGlobal []int
	// planLocal maps parent plan index -> local plan index (only for plans
	// inside the subset).
	planLocal map[int]int
	// Discarded lists parent-problem savings with exactly one endpoint in
	// this subset, in canonical parent numbering.
	Discarded []Saving
}

// Extract builds the SubProblem of parent over the given parent query
// indices. The query list must be non-empty, sorted or unsorted, and free of
// duplicates and out-of-range indices.
func Extract(parent *Problem, queries []int) (*SubProblem, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("mqo: cannot extract sub-problem over zero queries")
	}
	qs := make([]int, len(queries))
	copy(qs, queries)
	sort.Ints(qs)
	for i, q := range qs {
		if q < 0 || q >= parent.NumQueries() {
			return nil, fmt.Errorf("mqo: sub-problem query %d out of range", q)
		}
		if i > 0 && qs[i-1] == q {
			return nil, fmt.Errorf("mqo: duplicate query %d in sub-problem", q)
		}
	}
	nPlans := 0
	for _, q := range qs {
		nPlans += len(parent.Plans(q))
	}
	sub := &SubProblem{
		Queries:    qs,
		PlanGlobal: make([]int, 0, nPlans),
		planLocal:  make(map[int]int, nPlans),
	}
	// localOf[pl] is parent plan pl's local index, or -1 outside the
	// subset. The savings scan below runs once per parent saving, and a
	// dense index keeps map lookups out of it.
	localOf := make([]int32, parent.NumPlans())
	for i := range localOf {
		localOf[i] = -1
	}
	planCosts := make([][]float64, len(qs))
	for lq, q := range qs {
		plans := parent.Plans(q)
		costs := make([]float64, len(plans))
		for i, pl := range plans {
			costs[i] = parent.Cost(pl)
			localOf[pl] = int32(len(sub.PlanGlobal))
			sub.planLocal[pl] = len(sub.PlanGlobal)
			sub.PlanGlobal = append(sub.PlanGlobal, pl)
		}
		planCosts[lq] = costs
	}
	savings := parent.Savings()
	nLocal, nDiscarded := 0, 0
	for _, sv := range savings {
		in1, in2 := localOf[sv.P1] >= 0, localOf[sv.P2] >= 0
		switch {
		case in1 && in2:
			nLocal++
		case in1 != in2:
			nDiscarded++
		}
	}
	local := make([]Saving, 0, nLocal)
	// Discarded stays nil when the subset loses no saving.
	if nDiscarded > 0 {
		sub.Discarded = make([]Saving, 0, nDiscarded)
	}
	for _, sv := range savings {
		l1, l2 := localOf[sv.P1], localOf[sv.P2]
		switch {
		case l1 >= 0 && l2 >= 0:
			local = append(local, Saving{P1: int(l1), P2: int(l2), Value: sv.Value})
		case (l1 >= 0) != (l2 >= 0):
			sub.Discarded = append(sub.Discarded, sv)
		}
	}
	var err error
	sub.Local, err = NewProblem(planCosts, local)
	if err != nil {
		return nil, fmt.Errorf("mqo: extracting sub-problem: %w", err)
	}
	sub.Local.Name = fmt.Sprintf("%s[sub %d queries]", parent.Name, len(qs))
	return sub, nil
}

// LocalPlan returns the local index of a parent plan, and whether the plan
// is part of this sub-problem.
func (sp *SubProblem) LocalPlan(parentPlan int) (int, bool) {
	l, ok := sp.planLocal[parentPlan]
	return l, ok
}

// AdjustCost reduces the cost of the local plan corresponding to parentPlan
// by delta. It implements the plan-cost update of Algorithm 3
// (plan.cost ← plan.cost − s.val); adjusted costs may become non-positive,
// which downstream QUBO encodings and solvers handle.
func (sp *SubProblem) AdjustCost(parentPlan int, delta float64) {
	l, ok := sp.planLocal[parentPlan]
	if !ok {
		return
	}
	sp.Local.cost[l] -= delta
}

// ToGlobal translates a solution of the Local problem into a partial
// solution of the parent problem.
func (sp *SubProblem) ToGlobal(parent *Problem, local *Solution) (*Solution, error) {
	if err := local.Validate(sp.Local); err != nil {
		return nil, err
	}
	g := NewSolution(parent)
	for lq, pl := range local.Selected {
		if pl == Unassigned {
			continue
		}
		g.Selected[sp.Queries[lq]] = sp.PlanGlobal[pl]
	}
	return g, nil
}

// PlanOwners maps every plan of parent to the index of the sub-problem
// owning it, or -1 for plans outside every sub. Sub-problems produced by the
// partitioning phase partition the query set, so each plan has at most one
// owner; the map is the lookup the DSS dependency DAG is built from (a
// discarded saving couples exactly the two sub-problems owning its
// endpoints).
func PlanOwners(parent *Problem, subs []*SubProblem) []int {
	owner := make([]int, parent.NumPlans())
	for i := range owner {
		owner[i] = -1
	}
	for si, sub := range subs {
		for _, pl := range sub.PlanGlobal {
			owner[pl] = si
		}
	}
	return owner
}

// DiscardedMagnitude returns the accumulated value of the savings this
// sub-problem lost to the partitioning — the information DSS re-applies.
func (sp *SubProblem) DiscardedMagnitude() float64 {
	var t float64
	for _, s := range sp.Discarded {
		t += s.Value
	}
	return t
}
