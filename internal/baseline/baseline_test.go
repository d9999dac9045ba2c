package baseline

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"incranneal/internal/mqo"
)

func TestExactSolvesPaperExample(t *testing.T) {
	p := mqo.PaperExample()
	res, err := Exact(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 25 {
		t.Errorf("exact cost = %v, want 25", res.Cost)
	}
	want := []int{1, 3, 4, 6}
	for q, pl := range res.Solution.Selected {
		if pl != want[q] {
			t.Errorf("exact selection = %v, want %v", res.Solution.Selected, want)
			break
		}
	}
}

func TestExactRejectsHugeInstances(t *testing.T) {
	costs := make([][]float64, MaxExactQueries+1)
	for i := range costs {
		costs[i] = []float64{1}
	}
	p, err := mqo.NewProblem(costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(context.Background(), p, Options{}); err == nil {
		t.Error("Exact accepted oversized instance")
	}
}

func TestExactMatchesBruteForceProperty(t *testing.T) {
	// Property: branch-and-bound equals full enumeration on tiny random
	// instances.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 5, 3, 0.4)
		res, err := Exact(context.Background(), p, Options{})
		if err != nil {
			return false
		}
		best := bruteForce(p)
		diff := res.Cost - best
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHillClimbReachesPaperOptimum(t *testing.T) {
	p := mqo.PaperExample()
	res, err := HillClimb(context.Background(), p, Options{MaxIterations: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 25 {
		t.Errorf("hill climbing cost = %v, want 25 on the tiny example", res.Cost)
	}
	if err := res.Solution.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestHillClimbNeverWorseThanGreedyPlusLocalOpt(t *testing.T) {
	// Property: the result is a local optimum — no single swap improves.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 8, 3, 0.3)
		res, err := HillClimb(context.Background(), p, Options{MaxIterations: 3000, Seed: seed})
		if err != nil {
			return false
		}
		e := newEvaluator(p, res.Solution)
		for q := 0; q < p.NumQueries(); q++ {
			for _, pl := range p.Plans(q) {
				if pl != e.selected[q] && e.swapDelta(q, pl) < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGeneticReachesPaperOptimum(t *testing.T) {
	p := mqo.PaperExample()
	res, err := Genetic(context.Background(), p, GeneticOptions{
		Options: Options{MaxIterations: 100, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 25 {
		t.Errorf("genetic cost = %v, want 25 on the tiny example", res.Cost)
	}
}

func TestGeneticProducesValidSolutionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 10, 4, 0.2)
		res, err := Genetic(context.Background(), p, GeneticOptions{
			Options:        Options{MaxIterations: 20, Seed: seed},
			PopulationSize: 20,
		})
		if err != nil {
			return false
		}
		return res.Solution.Validate(p) == nil && res.Solution.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestGeneticImprovesOverGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 15, 5, 0.3)
	short, err := Genetic(context.Background(), p, GeneticOptions{Options: Options{MaxIterations: 1, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Genetic(context.Background(), p, GeneticOptions{Options: Options{MaxIterations: 200, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if long.Cost > short.Cost {
		t.Errorf("200 generations (%v) worse than 1 generation (%v)", long.Cost, short.Cost)
	}
}

func TestTimeBudgetStopsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 20, 5, 0.3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := HillClimb(ctx, p, Options{MaxIterations: 1 << 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("hill climbing ignored time budget")
	}
}

func TestEvaluatorSwapDeltaMatchesRecomputeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 6, 3, 0.4)
		sol := mqo.GreedySolution(p)
		e := newEvaluator(p, sol)
		for trial := 0; trial < 30; trial++ {
			q := rng.Intn(p.NumQueries())
			plans := p.Plans(q)
			pl := plans[rng.Intn(len(plans))]
			delta := e.swapDelta(q, pl)
			before := e.cost
			e.swap(q, pl)
			recomputed := e.solution().Cost(p)
			if d := e.cost - recomputed; d > 1e-9 || d < -1e-9 {
				return false
			}
			if d := (before + delta) - recomputed; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// bruteForce enumerates all solutions of a small problem.
func bruteForce(p *mqo.Problem) float64 {
	best := 0.0
	first := true
	sol := mqo.NewSolution(p)
	var rec func(q int)
	rec = func(q int) {
		if q == p.NumQueries() {
			c := sol.Cost(p)
			if first || c < best {
				best = c
				first = false
			}
			return
		}
		for _, pl := range p.Plans(q) {
			sol.Selected[q] = pl
			rec(q + 1)
		}
	}
	rec(0)
	return best
}

// randomProblem builds a random valid instance for property tests.
func randomProblem(rng *rand.Rand, queries, ppq int, density float64) *mqo.Problem {
	costs := make([][]float64, queries)
	for q := range costs {
		cs := make([]float64, ppq)
		for i := range cs {
			cs[i] = 1 + rng.Float64()*19
		}
		costs[q] = cs
	}
	var savings []mqo.Saving
	for q1 := 0; q1 < queries; q1++ {
		for q2 := q1 + 1; q2 < queries; q2++ {
			for i := 0; i < ppq; i++ {
				for j := 0; j < ppq; j++ {
					if rng.Float64() < density {
						savings = append(savings, mqo.Saving{
							P1:    q1*ppq + i,
							P2:    q2*ppq + j,
							Value: 1 + rng.Float64()*9,
						})
					}
				}
			}
		}
	}
	p, err := mqo.NewProblem(costs, savings)
	if err != nil {
		panic(err)
	}
	return p
}
