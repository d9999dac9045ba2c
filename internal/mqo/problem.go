// Package mqo defines the multiple query optimisation (MQO) problem model
// used throughout this repository. It follows the formal model of Trummer
// and Koch (VLDB'16), which the incremental annealing paper adopts: a batch
// of queries, a set of mutually exclusive execution plans per query, a
// positive execution cost per plan, and non-negative cost savings between
// pairs of plans belonging to different queries. A solution selects exactly
// one plan per query; its cost is the sum of selected plan costs minus the
// savings realised between selected pairs.
package mqo

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Saving is a cost-sharing opportunity between two execution plans that
// belong to different queries. Selecting both plans reduces the total
// execution cost by Value. Plans are identified by their global plan index;
// a Saving is stored in canonical order with P1 < P2.
type Saving struct {
	P1, P2 int
	Value  float64
}

// Canonical returns s with its plan indices ordered so that P1 < P2.
func (s Saving) Canonical() Saving {
	if s.P1 > s.P2 {
		s.P1, s.P2 = s.P2, s.P1
	}
	return s
}

// Problem is an immutable MQO problem instance.
//
// Plans are numbered globally from 0 to NumPlans()-1 and grouped by query;
// queries are numbered from 0 to NumQueries()-1. The zero value is an empty
// problem; use NewProblem or a Builder to construct instances.
type Problem struct {
	// plansOfQuery[q] lists the global indices of the plans of query q.
	plansOfQuery [][]int
	// queryOfPlan[p] is the query that plan p belongs to.
	queryOfPlan []int
	// cost[p] is the execution cost of plan p.
	cost []float64
	// savings holds all cost savings in canonical order (P1 < P2), sorted
	// lexicographically. No duplicates.
	savings []Saving
	// adj[p] lists, for each plan p, the savings incident to p. Entries
	// reference the savings slice.
	adj [][]int
	// Name is an optional human-readable instance label (e.g. the generator
	// parameters that produced it).
	Name string
}

// NewProblem constructs a Problem from per-query plan costs and a list of
// savings between plans of different queries.
//
// planCosts[q] holds the execution costs of the plans of query q; the global
// plan numbering assigns consecutive indices query by query, i.e. query 0
// owns plans 0..len(planCosts[0])-1 and so on. All costs must be positive
// and all savings non-negative, referencing valid plans of distinct queries.
// Duplicate savings for the same plan pair are rejected.
func NewProblem(planCosts [][]float64, savings []Saving) (*Problem, error) {
	p := &Problem{}
	total := 0
	for q, costs := range planCosts {
		if len(costs) == 0 {
			return nil, fmt.Errorf("mqo: query %d has no plans", q)
		}
		ids := make([]int, len(costs))
		for i, c := range costs {
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("mqo: query %d plan %d has invalid cost %v (must be positive and finite)", q, i, c)
			}
			ids[i] = total
			total++
		}
		p.plansOfQuery = append(p.plansOfQuery, ids)
		p.cost = append(p.cost, costs...)
		for range costs {
			p.queryOfPlan = append(p.queryOfPlan, q)
		}
	}
	if err := p.setSavings(savings); err != nil {
		return nil, err
	}
	return p, nil
}

// setSavings canonicalises, validates, sorts and indexes the savings list.
func (p *Problem) setSavings(savings []Saving) error {
	cs := make([]Saving, len(savings))
	for i, s := range savings {
		s = s.Canonical()
		if s.P1 < 0 || s.P2 >= len(p.cost) {
			return fmt.Errorf("mqo: saving references plan out of range: (%d,%d)", s.P1, s.P2)
		}
		if s.P1 == s.P2 {
			return fmt.Errorf("mqo: saving references a single plan %d twice", s.P1)
		}
		if p.queryOfPlan[s.P1] == p.queryOfPlan[s.P2] {
			return fmt.Errorf("mqo: saving between plans %d and %d of the same query %d", s.P1, s.P2, p.queryOfPlan[s.P1])
		}
		if s.Value < 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("mqo: saving (%d,%d) has invalid value %v", s.P1, s.P2, s.Value)
		}
		cs[i] = s
	}
	slices.SortFunc(cs, func(a, b Saving) int {
		if c := cmp.Compare(a.P1, b.P1); c != 0 {
			return c
		}
		return cmp.Compare(a.P2, b.P2)
	})
	for i := 1; i < len(cs); i++ {
		if cs[i].P1 == cs[i-1].P1 && cs[i].P2 == cs[i-1].P2 {
			return fmt.Errorf("mqo: duplicate saving for plan pair (%d,%d)", cs[i].P1, cs[i].P2)
		}
	}
	p.savings = cs
	// Every plan's saving indices are a window of one backing array, sized
	// by a degree count and filled in saving order; the windows' capacities
	// end where the next begins. A plan without savings keeps a nil list.
	start := make([]int, len(p.cost)+1)
	for _, s := range cs {
		start[s.P1+1]++
		start[s.P2+1]++
	}
	for pl := range p.cost {
		start[pl+1] += start[pl]
	}
	backing := make([]int, 2*len(cs))
	p.adj = make([][]int, len(p.cost))
	for pl := range p.adj {
		if lo, hi := start[pl], start[pl+1]; hi > lo {
			p.adj[pl] = backing[lo:lo:hi]
		}
	}
	for i, s := range cs {
		p.adj[s.P1] = append(p.adj[s.P1], i)
		p.adj[s.P2] = append(p.adj[s.P2], i)
	}
	return nil
}

// NumQueries returns |Q|, the number of queries in the batch.
func (p *Problem) NumQueries() int { return len(p.plansOfQuery) }

// NumPlans returns |P|, the total number of execution plans.
func (p *Problem) NumPlans() int { return len(p.cost) }

// NumSavings returns |S|, the number of cost savings.
func (p *Problem) NumSavings() int { return len(p.savings) }

// Plans returns the global plan indices of query q. The returned slice is
// owned by the Problem and must not be modified.
func (p *Problem) Plans(q int) []int { return p.plansOfQuery[q] }

// QueryOf returns the query that plan belongs to.
func (p *Problem) QueryOf(plan int) int { return p.queryOfPlan[plan] }

// Cost returns the execution cost of plan.
func (p *Problem) Cost(plan int) float64 { return p.cost[plan] }

// Savings returns all cost savings in canonical sorted order. The returned
// slice is owned by the Problem and must not be modified.
func (p *Problem) Savings() []Saving { return p.savings }

// SavingsOf returns the savings incident to plan. The returned slice is
// owned by the Problem and must not be modified.
func (p *Problem) SavingsOf(plan int) []Saving {
	idx := p.adj[plan]
	out := make([]Saving, len(idx))
	for i, si := range idx {
		out[i] = p.savings[si]
	}
	return out
}

// SavingBetween reports the saving value between two plans, or 0 if none is
// defined. Plan order does not matter.
func (p *Problem) SavingBetween(p1, p2 int) float64 {
	if p1 > p2 {
		p1, p2 = p2, p1
	}
	// Binary search over the canonically sorted savings list.
	lo, hi := 0, len(p.savings)
	for lo < hi {
		mid := (lo + hi) / 2
		s := p.savings[mid]
		if s.P1 < p1 || (s.P1 == p1 && s.P2 < p2) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.savings) && p.savings[lo].P1 == p1 && p.savings[lo].P2 == p2 {
		return p.savings[lo].Value
	}
	return 0
}

// TotalPlanCost returns the sum of all plan costs (an upper bound on any
// solution cost).
func (p *Problem) TotalPlanCost() float64 {
	var t float64
	for _, c := range p.cost {
		t += c
	}
	return t
}

// SolutionSpaceSize returns log10 of the number of valid solutions,
// i.e. log10(Π_q |P_q|). The logarithm avoids overflow for the paper's
// large-scale instances (e.g. 40^1000 solutions).
func (p *Problem) SolutionSpaceSize() float64 {
	var l float64
	for _, plans := range p.plansOfQuery {
		l += math.Log10(float64(len(plans)))
	}
	return l
}

// ErrEmptyProblem is returned by operations that require at least one query.
var ErrEmptyProblem = errors.New("mqo: problem has no queries")

// Validate performs internal consistency checks. It is primarily useful
// after deserialisation of externally produced instances.
func (p *Problem) Validate() error {
	if p.NumQueries() == 0 {
		return ErrEmptyProblem
	}
	next := 0
	for q, plans := range p.plansOfQuery {
		if len(plans) == 0 {
			return fmt.Errorf("mqo: query %d has no plans", q)
		}
		for _, pl := range plans {
			if pl != next {
				return fmt.Errorf("mqo: non-contiguous plan numbering at query %d (plan %d, want %d)", q, pl, next)
			}
			if p.queryOfPlan[pl] != q {
				return fmt.Errorf("mqo: plan %d maps to query %d, want %d", pl, p.queryOfPlan[pl], q)
			}
			next++
		}
	}
	if next != len(p.cost) {
		return fmt.Errorf("mqo: %d plans indexed but %d costs stored", next, len(p.cost))
	}
	for _, c := range p.cost {
		if c <= 0 {
			return fmt.Errorf("mqo: non-positive plan cost %v", c)
		}
	}
	for _, s := range p.savings {
		if s.P1 >= s.P2 {
			return fmt.Errorf("mqo: non-canonical saving (%d,%d)", s.P1, s.P2)
		}
		if p.queryOfPlan[s.P1] == p.queryOfPlan[s.P2] {
			return fmt.Errorf("mqo: intra-query saving (%d,%d)", s.P1, s.P2)
		}
		if s.Value < 0 {
			return fmt.Errorf("mqo: negative saving (%d,%d)=%v", s.P1, s.P2, s.Value)
		}
	}
	return nil
}
