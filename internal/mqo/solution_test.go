package mqo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPaperExampleCosts(t *testing.T) {
	p := PaperExample()
	// Example 3.1: greedy picks (p1,p3,p6,p8); with savings counted the
	// total is 34.
	greedy := GreedySolution(p)
	wantSel := []int{0, 2, 5, 7}
	for q, pl := range greedy.Selected {
		if pl != wantSel[q] {
			t.Fatalf("greedy selected %v, want %v", greedy.Selected, wantSel)
		}
	}
	if got := greedy.Cost(p); got != 34 {
		t.Errorf("greedy cost = %v, want 34", got)
	}
	// Example 3.1: the optimum (p2,p4,p5,p7) costs 25.
	opt := PaperExampleOptimal(p)
	if got := opt.Cost(p); got != 25 {
		t.Errorf("optimal cost = %v, want 25", got)
	}
	// Example 4.6: the parallel-processing result (p2,p4,p6,p8) costs 32.
	par := &Solution{Selected: []int{1, 3, 5, 7}}
	if got := par.Cost(p); got != 32 {
		t.Errorf("parallel-merge cost = %v, want 32", got)
	}
}

func TestPartialSolutionCost(t *testing.T) {
	p := PaperExample()
	s := NewSolution(p)
	if got := s.Cost(p); got != 0 {
		t.Errorf("empty solution cost = %v, want 0", got)
	}
	s.Selected[0], s.Selected[1] = 1, 3 // (p2, p4): 10+10−5
	if got := s.Cost(p); got != 15 {
		t.Errorf("partial cost = %v, want 15", got)
	}
	if s.Complete() {
		t.Error("partial solution reported complete")
	}
}

func TestMergeConflicts(t *testing.T) {
	p := PaperExample()
	a, b := NewSolution(p), NewSolution(p)
	a.Selected[0] = 0
	b.Selected[0] = 1
	if err := a.Merge(b); err == nil {
		t.Error("Merge accepted conflicting assignment")
	}
	c := NewSolution(p)
	c.Selected[1] = 3
	if err := a.Merge(c); err != nil {
		t.Errorf("Merge of disjoint assignments failed: %v", err)
	}
	if a.Selected[0] != 0 || a.Selected[1] != 3 {
		t.Errorf("merged selection = %v", a.Selected)
	}
}

func TestValidateSolution(t *testing.T) {
	p := PaperExample()
	s := NewSolution(p)
	s.Selected[0] = 3 // plan of q2 assigned to q1
	if err := s.Validate(p); err == nil {
		t.Error("Validate accepted plan of wrong query")
	}
	s.Selected[0] = 99
	if err := s.Validate(p); err == nil {
		t.Error("Validate accepted out-of-range plan")
	}
}

func TestRepair(t *testing.T) {
	p := PaperExample()
	// No plan selected anywhere: repair must produce a valid complete
	// solution.
	s := Repair(p, make([]bool, p.NumPlans()))
	if err := s.Validate(p); err != nil {
		t.Fatalf("repair of empty selection invalid: %v", err)
	}
	if !s.Complete() {
		t.Fatal("repair of empty selection incomplete")
	}
	// Multiple plans for q1 selected: exactly one must survive.
	sel := make([]bool, p.NumPlans())
	sel[0], sel[1] = true, true // both plans of q1
	sel[3], sel[4], sel[6] = true, true, true
	s = Repair(p, sel)
	if err := s.Validate(p); err != nil {
		t.Fatalf("repair invalid: %v", err)
	}
	if !s.Complete() {
		t.Fatal("repair incomplete")
	}
	// Queries with a unique selected plan keep it.
	if s.Selected[1] != 3 || s.Selected[2] != 4 || s.Selected[3] != 6 {
		t.Errorf("repair changed unique selections: %v", s.Selected)
	}
}

func TestRepairAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, mask uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 5, 3, 0.3)
		sel := make([]bool, p.NumPlans())
		for i := range sel {
			sel[i] = mask&(1<<(i%16)) != 0 && rng.Intn(2) == 0
		}
		s := Repair(p, sel)
		return s.Validate(p) == nil && s.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCostMatchesBruteForceProperty(t *testing.T) {
	// Property: Cost equals the direct definition Σc − Σ realised savings.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 5, 3, 0.4)
		s := NewSolution(p)
		for q := 0; q < p.NumQueries(); q++ {
			plans := p.Plans(q)
			s.Selected[q] = plans[rng.Intn(len(plans))]
		}
		var want float64
		for _, pl := range s.Selected {
			want += p.Cost(pl)
		}
		for _, pl1 := range s.Selected {
			for _, pl2 := range s.Selected {
				if pl1 < pl2 {
					want -= p.SavingBetween(pl1, pl2)
				}
			}
		}
		got := s.Cost(p)
		diff := got - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGreedySolutionPicksCheapestPlans(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 6, 4, 0.2)
		g := GreedySolution(p)
		for q := 0; q < p.NumQueries(); q++ {
			for _, pl := range p.Plans(q) {
				if p.Cost(pl) < p.Cost(g.Selected[q]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
