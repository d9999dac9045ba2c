package baseline

import (
	"context"
	"math/rand"
	"sort"

	"incranneal/internal/mqo"
)

// GeneticOptions extends Options with the GA's own knobs, defaulting to the
// JGAP-style configuration the paper uses (population sizes 50 and 200 with
// default operator settings).
type GeneticOptions struct {
	Options
	// PopulationSize defaults to 50.
	PopulationSize int
	// CrossoverRate is the fraction of the population replaced by
	// single-point crossover offspring each generation (JGAP default 0.35).
	CrossoverRate float64
	// MutationRate is the per-gene probability of re-randomising a plan
	// choice (JGAP default 1/12 per candidate, applied gene-wise here).
	MutationRate float64
	// Elitism keeps the best candidates unchanged each generation
	// (default 1).
	Elitism int
}

func (o GeneticOptions) withDefaults() GeneticOptions {
	if o.PopulationSize <= 0 {
		o.PopulationSize = 50
	}
	if o.CrossoverRate <= 0 {
		o.CrossoverRate = 0.35
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 1.0 / 12.0
	}
	if o.Elitism <= 0 {
		o.Elitism = 1
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 500 // generations
	}
	return o
}

// chromosome is one candidate: the per-query index into Plans(q).
type chromosome struct {
	genes []int
	cost  float64
}

// Genetic runs the genetic algorithm for MQO in the style of Bayir et al.
// (2007): plan-index chromosomes, roulette-wheel selection on inverted
// cost, single-point crossover and gene-wise mutation.
// Options.MaxIterations bounds the number of generations.
func Genetic(ctx context.Context, p *mqo.Problem, gopt GeneticOptions) (*Result, error) {
	gopt = gopt.withDefaults()
	rng := rand.New(rand.NewSource(gopt.Seed))
	pop := make([]chromosome, gopt.PopulationSize)
	for i := range pop {
		pop[i] = randomChromosome(p, rng)
		pop[i].cost = decode(p, pop[i]).Cost(p)
	}
	sortPop(pop)
	generations := 0
	for generations < gopt.MaxIterations && ctx.Err() == nil {
		next := make([]chromosome, 0, len(pop))
		for i := 0; i < gopt.Elitism && i < len(pop); i++ {
			next = append(next, cloneChromosome(pop[i]))
		}
		for len(next) < len(pop) {
			a, b := selectParent(pop, rng), selectParent(pop, rng)
			var child chromosome
			if rng.Float64() < gopt.CrossoverRate*2 { // two parents per crossover
				child = crossover(a, b, rng)
			} else {
				child = cloneChromosome(a)
			}
			mutate(p, &child, gopt.MutationRate, rng)
			child.cost = decode(p, child).Cost(p)
			next = append(next, child)
		}
		pop = next
		sortPop(pop)
		generations++
	}
	best := decode(p, pop[0])
	return &Result{Solution: best, Cost: pop[0].cost, Iterations: generations}, nil
}

func randomChromosome(p *mqo.Problem, rng *rand.Rand) chromosome {
	genes := make([]int, p.NumQueries())
	for q := range genes {
		genes[q] = rng.Intn(len(p.Plans(q)))
	}
	return chromosome{genes: genes}
}

func cloneChromosome(c chromosome) chromosome {
	return chromosome{genes: append([]int(nil), c.genes...), cost: c.cost}
}

func decode(p *mqo.Problem, c chromosome) *mqo.Solution {
	s := mqo.NewSolution(p)
	for q, g := range c.genes {
		s.Selected[q] = p.Plans(q)[g]
	}
	return s
}

func sortPop(pop []chromosome) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].cost < pop[j].cost })
}

// selectParent performs rank-weighted roulette selection: candidate k of n
// is drawn with weight n−k, cheap and scale-free (costs may be negative
// after offsets, ruling out fitness-proportional selection).
func selectParent(pop []chromosome, rng *rand.Rand) chromosome {
	n := len(pop)
	total := n * (n + 1) / 2
	r := rng.Intn(total)
	acc := 0
	for k := 0; k < n; k++ {
		acc += n - k
		if r < acc {
			return pop[k]
		}
	}
	return pop[n-1]
}

func crossover(a, b chromosome, rng *rand.Rand) chromosome {
	point := rng.Intn(len(a.genes))
	genes := make([]int, len(a.genes))
	copy(genes, a.genes[:point])
	copy(genes[point:], b.genes[point:])
	return chromosome{genes: genes}
}

func mutate(p *mqo.Problem, c *chromosome, rate float64, rng *rand.Rand) {
	for q := range c.genes {
		if rng.Float64() < rate {
			c.genes[q] = rng.Intn(len(p.Plans(q)))
		}
	}
}
