package mqo

import "fmt"

// Solution assigns one execution plan to each query of a Problem.
//
// Selected[q] holds the global plan index chosen for query q, or Unassigned
// if the query has not been decided yet (partial solutions appear during
// incremental optimisation).
type Solution struct {
	Selected []int
}

// Unassigned marks a query without a selected plan in a partial Solution.
const Unassigned = -1

// NewSolution returns an empty (fully unassigned) solution for p.
func NewSolution(p *Problem) *Solution {
	sel := make([]int, p.NumQueries())
	for i := range sel {
		sel[i] = Unassigned
	}
	return &Solution{Selected: sel}
}

// Clone returns a deep copy of s.
func (s *Solution) Clone() *Solution {
	sel := make([]int, len(s.Selected))
	copy(sel, s.Selected)
	return &Solution{Selected: sel}
}

// Complete reports whether every query has a selected plan.
func (s *Solution) Complete() bool {
	for _, pl := range s.Selected {
		if pl == Unassigned {
			return false
		}
	}
	return true
}

// Merge copies every assignment of other into s. It returns an error if
// other assigns a query that s has already assigned to a different plan.
func (s *Solution) Merge(other *Solution) error {
	if len(other.Selected) != len(s.Selected) {
		return fmt.Errorf("mqo: merging solutions of different problem sizes (%d vs %d)", len(other.Selected), len(s.Selected))
	}
	for q, pl := range other.Selected {
		if pl == Unassigned {
			continue
		}
		if s.Selected[q] != Unassigned && s.Selected[q] != pl {
			return fmt.Errorf("mqo: conflicting assignment for query %d (%d vs %d)", q, s.Selected[q], pl)
		}
		s.Selected[q] = pl
	}
	return nil
}

// Validate checks that s is a structurally valid (possibly partial)
// solution for p: every assigned plan exists and belongs to the query it is
// assigned to.
func (s *Solution) Validate(p *Problem) error {
	if len(s.Selected) != p.NumQueries() {
		return fmt.Errorf("mqo: solution covers %d queries, problem has %d", len(s.Selected), p.NumQueries())
	}
	for q, pl := range s.Selected {
		if pl == Unassigned {
			continue
		}
		if pl < 0 || pl >= p.NumPlans() {
			return fmt.Errorf("mqo: query %d assigned out-of-range plan %d", q, pl)
		}
		if p.QueryOf(pl) != q {
			return fmt.Errorf("mqo: query %d assigned plan %d which belongs to query %d", q, pl, p.QueryOf(pl))
		}
	}
	return nil
}

// Cost returns C(P_e) = Σ c_i − Σ s_ij over the assigned plans of s,
// counting a saving when both of its plans are selected. Unassigned queries
// contribute nothing, so Cost on a partial solution is the cost of the
// partial plan set.
func (s *Solution) Cost(p *Problem) float64 {
	return s.CostBuffered(p, make([]bool, p.NumPlans()))
}

// CostBuffered is Cost with a caller-provided plan-selection scratch buffer
// (len ≥ NumPlans; it is cleared first), for hot decode loops that evaluate
// many candidate solutions. The float accumulation order matches Cost
// exactly.
func (s *Solution) CostBuffered(p *Problem, selected []bool) float64 {
	selected = selected[:p.NumPlans()]
	for i := range selected {
		selected[i] = false
	}
	var total float64
	for _, pl := range s.Selected {
		if pl == Unassigned {
			continue
		}
		selected[pl] = true
		total += p.Cost(pl)
	}
	for _, sv := range p.Savings() {
		if selected[sv.P1] && selected[sv.P2] {
			total -= sv.Value
		}
	}
	return total
}

// GreedySolution selects, for every query independently, the plan with the
// lowest individual execution cost — the naive single-query optimiser the
// paper contrasts MQO against (Example 3.1).
func GreedySolution(p *Problem) *Solution {
	s := NewSolution(p)
	for q := 0; q < p.NumQueries(); q++ {
		best, bestCost := Unassigned, 0.0
		for _, pl := range p.Plans(q) {
			if best == Unassigned || p.Cost(pl) < bestCost {
				best, bestCost = pl, p.Cost(pl)
			}
		}
		s.Selected[q] = best
	}
	return s
}

// Repair turns an arbitrary plan-selection bitset into a valid Solution,
// implementing the validity post-processing of Sec. 4.2: if several plans of
// a query are selected, keep the one with the lowest marginal cost w.r.t.
// the plans kept so far; if none is selected, pick the best among all of the
// query's plans the same way.
func Repair(p *Problem, selected []bool) *Solution {
	s := NewSolution(p)
	RepairInto(p, selected, s, make([]bool, p.NumPlans()))
	return s
}

// RepairInto is Repair writing into a caller-provided Solution and reusing a
// chosen-plan scratch buffer (len ≥ NumPlans; it is cleared first), so the
// per-sample decode loop allocates nothing. into must cover p's queries.
func RepairInto(p *Problem, selected []bool, into *Solution, chosen []bool) {
	chosen = chosen[:p.NumPlans()]
	for i := range chosen {
		chosen[i] = false
	}
	marginal := func(pl int) float64 {
		cost := p.Cost(pl)
		// Walk the savings incident to pl through the index adjacency
		// directly — same order as SavingsOf, without materialising the
		// slice.
		for _, si := range p.adj[pl] {
			sv := p.savings[si]
			other := sv.P1
			if other == pl {
				other = sv.P2
			}
			if chosen[other] {
				cost -= sv.Value
			}
		}
		return cost
	}
	pick := func(q int, candidates []int) {
		best, bestCost := Unassigned, 0.0
		for _, pl := range candidates {
			c := marginal(pl)
			if best == Unassigned || c < bestCost {
				best, bestCost = pl, c
			}
		}
		into.Selected[q] = best
		chosen[best] = true
	}
	for q := 0; q < p.NumQueries(); q++ {
		plans := p.Plans(q)
		// Single-selected queries (the common, valid case) shortcut the
		// marginal computation without building a candidate list; the
		// multi-selected repair path scans the query's plan range in place.
		first, count := Unassigned, 0
		for _, pl := range plans {
			if pl < len(selected) && selected[pl] {
				if count == 0 {
					first = pl
				}
				count++
			}
		}
		switch count {
		case 1:
			into.Selected[q] = first
			chosen[first] = true
		case 0:
			pick(q, plans)
		default:
			cand := make([]int, 0, count)
			for _, pl := range plans {
				if pl < len(selected) && selected[pl] {
					cand = append(cand, pl)
				}
			}
			pick(q, cand)
		}
	}
}
