package mqo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// extractReference is the map-based Extract: every parent saving looks up
// both endpoints in planLocal, and both saving lists grow by append.
// Extract must build exactly the SubProblem it builds. It takes only query
// sets that Extract has already validated.
func extractReference(parent *Problem, queries []int) (*SubProblem, error) {
	qs := make([]int, len(queries))
	copy(qs, queries)
	sort.Ints(qs)
	sub := &SubProblem{
		Queries:   qs,
		planLocal: make(map[int]int),
	}
	planCosts := make([][]float64, len(qs))
	for lq, q := range qs {
		plans := parent.Plans(q)
		costs := make([]float64, len(plans))
		for i, pl := range plans {
			costs[i] = parent.Cost(pl)
			sub.planLocal[pl] = len(sub.PlanGlobal)
			sub.PlanGlobal = append(sub.PlanGlobal, pl)
		}
		planCosts[lq] = costs
	}
	var local []Saving
	for _, sv := range parent.Savings() {
		l1, in1 := sub.planLocal[sv.P1]
		l2, in2 := sub.planLocal[sv.P2]
		switch {
		case in1 && in2:
			local = append(local, Saving{P1: l1, P2: l2, Value: sv.Value})
		case in1 != in2:
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

// extractMatchesReference extracts qs from p with both Extract and
// extractReference and reports whether the two SubProblems are deeply
// equal, nil-ness of every slice included.
func extractMatchesReference(p *Problem, qs []int) (*SubProblem, bool) {
	got, err := Extract(p, qs)
	if err != nil {
		return nil, false
	}
	want, err := extractReference(p, qs)
	if err != nil {
		return nil, false
	}
	return got, reflect.DeepEqual(got, want)
}

func TestExtractPaperPartitions(t *testing.T) {
	p := PaperExample()
	// Example 4.4 partitions: part1 = (q1,q2), part2 = (q3,q4).
	sub1, err := Extract(p, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub1.Local.NumQueries(); got != 2 {
		t.Fatalf("sub1 queries = %d, want 2", got)
	}
	if got := sub1.Local.NumPlans(); got != 4 {
		t.Fatalf("sub1 plans = %d, want 4", got)
	}
	// Internal savings of part1: s13, s14, s23, s24 → 4 savings.
	if got := sub1.Local.NumSavings(); got != 4 {
		t.Errorf("sub1 savings = %d, want 4", got)
	}
	// Discarded: s(p2,p7) and s(p4,p5) → magnitude 10.
	if got := sub1.DiscardedMagnitude(); got != 10 {
		t.Errorf("sub1 discarded = %v, want 10", got)
	}
	sub2, err := Extract(p, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Internal savings of part2: s57, s58, s67, s68 → 4 savings, discarded 10.
	if got := sub2.Local.NumSavings(); got != 4 {
		t.Errorf("sub2 savings = %d, want 4", got)
	}
	if got := sub2.DiscardedMagnitude(); got != 10 {
		t.Errorf("sub2 discarded = %v, want 10", got)
	}
}

func TestExtractRejectsBadQuerySets(t *testing.T) {
	p := PaperExample()
	if _, err := Extract(p, nil); err == nil {
		t.Error("Extract accepted empty query set")
	}
	if _, err := Extract(p, []int{0, 0}); err == nil {
		t.Error("Extract accepted duplicate query")
	}
	if _, err := Extract(p, []int{0, 9}); err == nil {
		t.Error("Extract accepted out-of-range query")
	}
}

func TestSubProblemToGlobal(t *testing.T) {
	p := PaperExample()
	sub, err := Extract(p, []int{1, 3}) // q2 and q4
	if err != nil {
		t.Fatal(err)
	}
	local := NewSolution(sub.Local)
	local.Selected[0] = 1 // p4 locally (plans of q2 are local 0,1 = global 2,3)
	local.Selected[1] = 2 // p7 locally (plans of q4 are local 2,3 = global 6,7)
	global, err := sub.ToGlobal(p, local)
	if err != nil {
		t.Fatal(err)
	}
	if global.Selected[1] != 3 || global.Selected[3] != 6 {
		t.Errorf("global selection = %v, want q2→3, q4→6", global.Selected)
	}
	if global.Selected[0] != Unassigned || global.Selected[2] != Unassigned {
		t.Errorf("queries outside subset assigned: %v", global.Selected)
	}
}

func TestAdjustCostImplementsDSSExample(t *testing.T) {
	p := PaperExample()
	sub, err := Extract(p, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Example 4.7: reduce c7 by s(p2,p7)=5 → 9, c5 by s(p4,p5)=5 → 6.
	sub.AdjustCost(6, 5)
	sub.AdjustCost(4, 5)
	l5, _ := sub.LocalPlan(4)
	l7, _ := sub.LocalPlan(6)
	if got := sub.Local.Cost(l5); got != 6 {
		t.Errorf("adjusted c5 = %v, want 6", got)
	}
	if got := sub.Local.Cost(l7); got != 9 {
		t.Errorf("adjusted c7 = %v, want 9", got)
	}
	// Local optimum now is (p5,p7) at 6+9−5 = 10.
	best := &Solution{Selected: []int{l5, l7}}
	if got := best.Cost(sub.Local); got != 10 {
		t.Errorf("steered local optimum cost = %v, want 10", got)
	}
	// Adjusting a plan outside the sub-problem is a no-op.
	sub.AdjustCost(0, 100)
}

func TestExtractPartitionInvariantsProperty(t *testing.T) {
	// Property: internal + discarded savings of a partition cover every
	// parent saving exactly once (counting cross savings once per side).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 8, 3, 0.3)
		var qs1, qs2 []int
		for q := 0; q < p.NumQueries(); q++ {
			if rng.Intn(2) == 0 {
				qs1 = append(qs1, q)
			} else {
				qs2 = append(qs2, q)
			}
		}
		if len(qs1) == 0 || len(qs2) == 0 {
			return true
		}
		sub1, ok1 := extractMatchesReference(p, qs1)
		sub2, ok2 := extractMatchesReference(p, qs2)
		if !ok1 || !ok2 {
			return false
		}
		if len(sub1.Discarded) != len(sub2.Discarded) {
			return false
		}
		total := sub1.Local.NumSavings() + sub2.Local.NumSavings() + len(sub1.Discarded)
		return total == p.NumSavings()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	// Edge cases of the query set: one query, every query, and queries
	// that share no saving with anything (query 2 of noSavings).
	noSavings, err := NewProblem([][]float64{{1, 2}, {3, 4}, {5, 6}}, []Saving{{P1: 0, P2: 3, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	paper := PaperExample()
	for _, tc := range []struct {
		name string
		p    *Problem
		qs   []int
	}{
		{"singleton", paper, []int{2}},
		{"full set", paper, []int{3, 1, 0, 2}},
		{"no savings", noSavings, []int{2}},
		{"no local savings", noSavings, []int{0, 2}},
	} {
		if _, ok := extractMatchesReference(tc.p, tc.qs); !ok {
			t.Errorf("%s: Extract differs from the reference", tc.name)
		}
	}
}

func TestSubProblemCostConsistencyProperty(t *testing.T) {
	// Property: a local solution's cost on the (unadjusted) local problem
	// equals the global cost of its translation, because internal savings
	// are preserved verbatim.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 8, 3, 0.3)
		qs := []int{1, 3, 4, 6}
		sub, err := Extract(p, qs)
		if err != nil {
			return false
		}
		local := NewSolution(sub.Local)
		for lq := 0; lq < sub.Local.NumQueries(); lq++ {
			plans := sub.Local.Plans(lq)
			local.Selected[lq] = plans[rng.Intn(len(plans))]
		}
		global, err := sub.ToGlobal(p, local)
		if err != nil {
			return false
		}
		diff := local.Cost(sub.Local) - global.Cost(p)
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
