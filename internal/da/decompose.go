package da

import (
	"context"
	"math/rand"
	"sort"

	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// SolveLarge solves a QUBO of arbitrary size on the capacity-limited
// device, standing in for Fujitsu's *default partitioning* mode ("DA
// (Default)" in the paper). Fujitsu does not disclose its algorithm (paper
// footnote 1); this implementation is the standard vendor-style
// clamp-and-refine decomposition, deliberately MQO-oblivious so it contrasts
// with the paper's tailored partitioning:
//
//  1. Block the variables into groups of at most the device capacity by
//     greedily growing blocks along the variable-interaction graph
//     (breadth-first from high-degree seeds), which keeps strongly coupled
//     variables together without any knowledge of the problem's semantics.
//  2. Starting from a random full assignment, repeatedly sweep over the
//     blocks: clamp all variables outside the block, fold the clamped
//     couplings into the block's linear terms, solve the resulting
//     sub-QUBO on the device, and adopt the block solution when it lowers
//     the global energy.
//
// The per-block step budget divides the request's total budget so the
// overall number of annealing steps matches a direct solve, mirroring the
// paper's constant-iteration comparisons.
func (s *Solver) SolveLarge(ctx context.Context, req solver.Request) (*solver.Result, error) {
	m := req.Model
	if m == nil || m.NumVariables() == 0 {
		return nil, errEmptyModel
	}
	if m.NumVariables() <= s.Capacity() {
		return s.Solve(ctx, req)
	}
	blocks := s.blockVariables(m)
	rounds := 3
	// Keep the overall annealing budget identical to a direct solve, as
	// the paper does when comparing processing strategies: the request's
	// total step budget divides across every block solve of every round.
	perBlock := s.steps(req) / (len(blocks) * rounds)
	if perBlock < 500 {
		perBlock = 500
	}
	rng := rand.New(rand.NewSource(req.Seed))
	x := make([]int8, m.NumVariables())
	for i := range x {
		x[i] = int8(rng.Intn(2))
	}
	st := qubo.NewState(m)
	st.Reset(x)
	best := st.Copy()
	sweeps := 0
	for round := 0; round < rounds; round++ {
		improvedAny := false
		for _, block := range blocks {
			if solver.Interrupted(ctx) {
				break
			}
			sub := st.ClampedSubModel(block)
			subReq := solver.Request{Model: sub, Runs: req.Runs, Sweeps: perBlock, Seed: rng.Int63(), Parallelism: req.Parallelism}
			subRes, err := s.Solve(ctx, subReq)
			if err != nil {
				return nil, err
			}
			sweeps += subRes.Sweeps
			bestSub, ok := subRes.Best()
			if !ok {
				// A cancelled block solve yields no sample; keep the current
				// assignment and let the outer loop wind down.
				continue
			}
			// Adopt the block assignment when it lowers global energy; the
			// clamped sub-model's energy differs from the global energy by
			// a constant, so any sub-improvement is a global improvement.
			before := st.Energy()
			prev := make([]int8, len(block))
			for bi, v := range block {
				prev[bi] = st.Get(v)
				if st.Get(v) != bestSub.Assignment[bi] {
					st.Flip(v)
				}
			}
			if st.Energy() < before {
				improvedAny = true
			} else if st.Energy() > before {
				for bi, v := range block {
					if st.Get(v) != prev[bi] {
						st.Flip(v)
					}
				}
			}
			if st.Energy() < best.Energy() {
				best = st.Copy()
			}
		}
		if !improvedAny || solver.Interrupted(ctx) {
			break
		}
	}
	return &solver.Result{
		Samples: []solver.Sample{{Assignment: best.Assignment(), Energy: best.Energy()}},
		Sweeps:  sweeps,
	}, nil
}

// blockVariables greedily grows variable blocks of at most the device
// capacity along the interaction graph, seeding each block at the
// highest-degree unassigned variable.
func (s *Solver) blockVariables(m *qubo.Model) [][]int {
	n := m.NumVariables()
	capacity := s.Capacity()
	assigned := make([]bool, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return m.Degree(order[a]) > m.Degree(order[b]) })
	neighbours := make([][]int, n)
	for _, t := range m.Terms() {
		neighbours[t.I] = append(neighbours[t.I], t.J)
		neighbours[t.J] = append(neighbours[t.J], t.I)
	}
	var blocks [][]int
	for _, seed := range order {
		if assigned[seed] {
			continue
		}
		block := []int{seed}
		assigned[seed] = true
		queue := []int{seed}
		for len(queue) > 0 && len(block) < capacity {
			v := queue[0]
			queue = queue[1:]
			for _, nb := range neighbours[v] {
				if assigned[nb] || len(block) >= capacity {
					continue
				}
				assigned[nb] = true
				block = append(block, nb)
				queue = append(queue, nb)
			}
		}
		blocks = append(blocks, block)
	}
	return blocks
}
