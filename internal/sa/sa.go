// Package sa implements standard simulated annealing for QUBO problems on
// conventional hardware — the "SA (Default)" baseline of the paper's
// evaluation, modelled on the dwave-neal sampler it uses: single-variable
// Metropolis updates with a geometric inverse-temperature schedule derived
// from the problem's coefficient magnitudes, and independent restarts.
package sa

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// Solver is a classical simulated annealer. A request that leaves Runs or
// Sweeps zero gets the paper's defaults: 16 runs of 1,000 sweeps, the
// dwave-neal default.
type Solver struct{}

// Name implements solver.Solver.
func (s *Solver) Name() string { return "sa" }

// Capacity implements solver.Solver; classical SA has no device capacity.
func (s *Solver) Capacity() int { return 0 }

func (s *Solver) runs(req solver.Request) int {
	if req.Runs > 0 {
		return req.Runs
	}
	return 16
}

func (s *Solver) sweeps(req solver.Request) int {
	if req.Sweeps > 0 {
		return req.Sweeps
	}
	return 1000
}

// betaRange derives a geometric inverse-temperature schedule range from the
// model, following the dwave-neal heuristic: the hot temperature accepts
// the worst single-flip move with probability ~1/2, the cold temperature
// accepts the smallest non-zero move with probability ~1/100.
func betaRange(m *qubo.Model) (hot, cold float64) {
	largest, smallest := m.DeltaRange()
	hot, cold = math.Ln2/largest, math.Log(100)/smallest
	if cold <= hot {
		cold = hot * 100
	}
	return hot, cold
}

// Solve implements solver.Solver. Independent restarts execute through
// solver.Runs; the inverse-temperature schedule is computed once per Solve
// and shared read-only by all runs.
func (s *Solver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	m := req.Model
	if m == nil || m.NumVariables() == 0 {
		return nil, fmt.Errorf("sa: empty model")
	}
	runs := s.runs(req)
	hot, cold := betaRange(m)
	betas := schedule(ctx, hot, cold, s.sweeps(req))
	return solver.Runs(ctx, req, "sa", runs, func(st *qubo.State, rng *rand.Rand, rt *obs.RunTrace) (solver.Sample, int) {
		return anneal(ctx, st, betas, rng, rt)
	}), nil
}

// anneal performs one restart: Metropolis sweeps over st in a fresh random
// variable order per sweep, following the inverse temperatures betas. It
// returns the best sample seen and the sweeps performed.
func anneal(ctx context.Context, st *qubo.State, betas []float64, rng *rand.Rand, rt *obs.RunTrace) (solver.Sample, int) {
	var best qubo.BestTracker
	best.Observe(st)
	rt.Observe(0, best.Energy())
	order := make([]int, st.Model().NumVariables())
	for i := range order {
		order[i] = i
	}
	performed := 0
	var flips, proposals int64
	for _, beta := range betas {
		if solver.Interrupted(ctx) {
			break
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, v := range order {
			delta := st.DeltaEnergy(v)
			if delta <= 0 || rng.Float64() < math.Exp(-beta*delta) {
				st.Flip(v)
				flips++
			}
		}
		proposals += int64(len(order))
		if best.Observe(st) {
			rt.Observe(performed+1, best.Energy())
		}
		performed++
	}
	rt.Finish(performed, flips, proposals)
	return solver.Sample{Assignment: best.Assignment(), Energy: best.Energy()}, performed
}

// schedule fills the inverse-temperature table of a Solve, one entry per
// sweep. It stops filling once ctx is done, checking every 256 sweeps:
// anneal then breaks before its first sweep and reads no entry.
func schedule(ctx context.Context, hot, cold float64, sweeps int) []float64 {
	betas := make([]float64, sweeps)
	for sweep := range betas {
		if sweep%256 == 0 && sweep > 0 && solver.Interrupted(ctx) {
			break
		}
		betas[sweep] = geometricBeta(hot, cold, sweep, sweeps)
	}
	return betas
}

// geometricBeta interpolates the inverse temperature geometrically from hot
// to cold across the sweep budget.
func geometricBeta(hot, cold float64, sweep, sweeps int) float64 {
	if sweeps <= 1 {
		return cold
	}
	frac := float64(sweep) / float64(sweeps-1)
	return hot * math.Pow(cold/hot, frac)
}
