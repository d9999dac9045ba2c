package mqo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewProblemRejectsInvalidInput(t *testing.T) {
	cases := []struct {
		name    string
		costs   [][]float64
		savings []Saving
	}{
		{"empty query", [][]float64{{1, 2}, {}}, nil},
		{"zero cost", [][]float64{{0, 2}}, nil},
		{"negative cost", [][]float64{{-1}}, nil},
		{"saving out of range", [][]float64{{1}, {2}}, []Saving{{P1: 0, P2: 5, Value: 1}}},
		{"self saving", [][]float64{{1}, {2}}, []Saving{{P1: 1, P2: 1, Value: 1}}},
		{"intra-query saving", [][]float64{{1, 2}, {3}}, []Saving{{P1: 0, P2: 1, Value: 1}}},
		{"negative saving", [][]float64{{1}, {2}}, []Saving{{P1: 0, P2: 1, Value: -1}}},
		{"duplicate saving", [][]float64{{1}, {2}}, []Saving{{P1: 0, P2: 1, Value: 1}, {P1: 1, P2: 0, Value: 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewProblem(tc.costs, tc.savings); err == nil {
				t.Fatalf("NewProblem accepted invalid input %v / %v", tc.costs, tc.savings)
			}
		})
	}
}

func TestProblemAccessors(t *testing.T) {
	p := PaperExample()
	if got := p.NumQueries(); got != 4 {
		t.Errorf("NumQueries = %d, want 4", got)
	}
	if got := p.NumPlans(); got != 8 {
		t.Errorf("NumPlans = %d, want 8", got)
	}
	if got := p.NumSavings(); got != 10 {
		t.Errorf("NumSavings = %d, want 10", got)
	}
	if got := p.QueryOf(6); got != 3 {
		t.Errorf("QueryOf(6) = %d, want 3", got)
	}
	if got := p.Cost(6); got != 14 {
		t.Errorf("Cost(p7) = %v, want 14", got)
	}
	if got := p.Plans(2); !reflect.DeepEqual(got, []int{4, 5}) {
		t.Errorf("Plans(q3) = %v, want [4 5]", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSavingBetween(t *testing.T) {
	p := PaperExample()
	cases := []struct {
		p1, p2 int
		want   float64
	}{
		{1, 3, 5}, {3, 1, 5}, // s(p2,p4), both orders
		{1, 6, 5}, // s(p2,p7)
		{0, 2, 1}, // s(p1,p3)
		{0, 7, 0}, // no saving
		{2, 3, 0}, // same query, no saving possible
	}
	for _, tc := range cases {
		if got := p.SavingBetween(tc.p1, tc.p2); got != tc.want {
			t.Errorf("SavingBetween(%d,%d) = %v, want %v", tc.p1, tc.p2, got, tc.want)
		}
	}
}

func TestSavingBetweenMatchesLinearScan(t *testing.T) {
	// Property: the binary search agrees with a scan on random instances.
	f := func(seed int64) bool {
		p := randomProblem(rand.New(rand.NewSource(seed)), 6, 3, 0.4)
		for p1 := 0; p1 < p.NumPlans(); p1++ {
			for p2 := 0; p2 < p.NumPlans(); p2++ {
				if p1 == p2 {
					continue
				}
				var want float64
				for _, s := range p.Savings() {
					c := Saving{P1: p1, P2: p2}.Canonical()
					if s.P1 == c.P1 && s.P2 == c.P2 {
						want = s.Value
					}
				}
				if got := p.SavingBetween(p1, p2); got != want {
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

func TestSolutionSpaceSize(t *testing.T) {
	p := PaperExample()
	// 2^4 = 16 solutions → log10 ≈ 1.204.
	got := p.SolutionSpaceSize()
	if got < 1.20 || got > 1.21 {
		t.Errorf("SolutionSpaceSize = %v, want ~1.204", got)
	}
}

// randomProblem builds a random valid instance for property tests.
func randomProblem(rng *rand.Rand, queries, ppq int, density float64) *Problem {
	costs := make([][]float64, queries)
	for q := range costs {
		cs := make([]float64, ppq)
		for i := range cs {
			cs[i] = 1 + rng.Float64()*19
		}
		costs[q] = cs
	}
	var savings []Saving
	for q1 := 0; q1 < queries; q1++ {
		for q2 := q1 + 1; q2 < queries; q2++ {
			for i := 0; i < ppq; i++ {
				for j := 0; j < ppq; j++ {
					if rng.Float64() < density {
						savings = append(savings, Saving{
							P1:    q1*ppq + i,
							P2:    q2*ppq + j,
							Value: 1 + rng.Float64()*9,
						})
					}
				}
			}
		}
	}
	p, err := NewProblem(costs, savings)
	if err != nil {
		panic(err)
	}
	return p
}
