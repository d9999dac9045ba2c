// Package da implements a software Digital Annealer: a faithful simulator
// of Fujitsu's quantum-inspired annealing unit as published by Aramon et
// al. (Frontiers in Physics, 2019), which the paper uses as its primary
// device. The simulator reproduces the algorithmic properties the paper's
// results depend on:
//
//   - parallel-trial Monte Carlo: every Monte-Carlo step evaluates the
//     energy delta of flipping each of the N variables (the hardware does
//     this concurrently) and performs one flip drawn uniformly from the
//     accepted candidates, which boosts the state-update probability over
//     single-flip SA; the candidates share one acceptance threshold (see
//     parallelTrialStep);
//   - dynamic offset escape: if no flip is accepted in a step, an energy
//     offset is added to every subsequent acceptance test and grows until a
//     move is accepted, helping escape local minima; any accepted move
//     resets the offset;
//   - an exponential temperature schedule; and
//   - a hard variable capacity (8,192 on the real device) that forces
//     partitioning of larger problems, which is precisely the limitation
//     the paper's incremental method addresses.
//
// Problems above capacity can be handed to SolveLarge (see decompose.go),
// which stands in for Fujitsu's undisclosed default partitioning method.
package da

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// HardwareCapacity is the variable capacity of the second-generation
// Fujitsu Digital Annealer the paper reports (8,192 variables).
const HardwareCapacity = 8192

// Solver is a Digital Annealer simulator. The zero value models the real
// device: capacity 8,192, 16 runs, dynamic offset enabled, parallel-trial
// acceptance.
type Solver struct {
	// CapacityVars is the device variable capacity; zero means
	// HardwareCapacity. Tests and scaled-down experiments configure smaller
	// devices, exercising the same code paths the real 8,192-variable
	// device would.
	CapacityVars int
	// DisableDynamicOffset turns the escape mechanism off (ablation).
	DisableDynamicOffset bool
	// SingleFlip replaces parallel-trial acceptance with conventional
	// single-variable Metropolis sweeps (ablation: what the special-purpose
	// architecture adds over its own algorithm run serially).
	SingleFlip bool
	// PTReplicas sets the temperature-ladder size of the parallel
	// tempering mode (SolvePT); zero means PTReplicasDefault.
	PTReplicas int
}

// errEmptyModel reports a request without variables.
var errEmptyModel = fmt.Errorf("da: empty model")

// Name implements solver.Solver.
func (s *Solver) Name() string { return "da" }

// Capacity implements solver.Solver.
func (s *Solver) Capacity() int {
	if s.CapacityVars > 0 {
		return s.CapacityVars
	}
	return HardwareCapacity
}

// runs is the request's run count, the paper's 16 when it leaves Runs zero.
func (s *Solver) runs(req solver.Request) int {
	if req.Runs > 0 {
		return req.Runs
	}
	return 16
}

// steps is the per-run Monte-Carlo step budget: Request.Sweeps counts the
// DA's steps (each evaluates all variables once and performs at most one
// flip), and a request that leaves it zero gets 20 steps per variable,
// clamped to [2,000, 60,000].
func (s *Solver) steps(req solver.Request) int {
	if req.Sweeps > 0 {
		return req.Sweeps
	}
	n := req.Model.NumVariables()
	st := 20 * n
	if st < 2000 {
		st = 2000
	}
	if st > 60000 {
		st = 60000
	}
	return st
}

// runParams carries the model-derived invariants of a Solve shared by all
// of its runs: the schedule endpoints, the precomputed per-step temperature
// table and the dynamic-offset unit. They depend only on the model and the
// step budget, so they are computed once per Solve instead of once per run.
type runParams struct {
	temps   []float64 // temps[step] of the exponential schedule
	offUnit float64
}

// checkEvery is how many steps a run, or a worker filling the temperature
// table, goes between checks of its context.
const checkEvery = 256

// newRunParams hoists the per-run invariants of a Solve. The temperature
// table is filled in contiguous chunks on the run pool's workers; every
// entry is the same expression of its step, so the bits do not depend on
// the chunking. A worker stops filling once ctx is done: anneal then
// breaks at its step-0 check and reads only temps[0], which is always
// written.
func (s *Solver) newRunParams(ctx context.Context, m *qubo.Model, steps, workers int) runParams {
	tHot, tCold := temperatureRange(m)
	temps := make([]float64, steps)
	denom := float64(max(steps-1, 1))
	chunk := (steps + workers - 1) / workers
	solver.ForEachRun(workers, workers, func(w int) {
		for step := w * chunk; step < min((w+1)*chunk, steps); step++ {
			if step%checkEvery == 0 && step > 0 && solver.Interrupted(ctx) {
				return
			}
			temps[step] = tHot * math.Pow(tCold/tHot, float64(step)/denom)
		}
	})
	return runParams{temps: temps, offUnit: offsetUnit(m)}
}

// Solve implements solver.Solver for problems within device capacity: the
// request's independent runs execute through solver.Runs, each one anneal
// over the schedule shared by all runs.
func (s *Solver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	m := req.Model
	if m == nil || m.NumVariables() == 0 {
		return nil, errEmptyModel
	}
	if err := solver.CheckCapacity(s, m); err != nil {
		return nil, err
	}
	prm := s.newRunParams(ctx, m, s.steps(req), solver.Workers(req.Parallelism))
	return solver.Runs(ctx, req, "da", s.runs(req), func(st *qubo.State, rng *rand.Rand, rt *obs.RunTrace) (solver.Sample, int) {
		return s.anneal(ctx, m, prm, st, rng, rt)
	}), nil
}

// anneal performs one Digital Annealer run over the precomputed schedule
// and returns the best sample seen. rt records the run's convergence
// trajectory and acceptance counters; a nil rt (tracing disabled) keeps the
// loop allocation-free — every recorder call is one nil-check branch.
func (s *Solver) anneal(ctx context.Context, m *qubo.Model, prm runParams, st *qubo.State, rng *rand.Rand, rt *obs.RunTrace) (solver.Sample, int) {
	n := m.NumVariables()
	var best qubo.BestTracker
	best.Observe(st)
	rt.Observe(0, best.Energy())
	last := len(prm.temps) - 1
	var c chain
	if !s.SingleFlip {
		c.start(st, rng)
		c.collect(prm.temps[0])
	}
	performed := 0
	var flips int64
	for step := 0; step <= last; step++ {
		if step%checkEvery == 0 {
			if solver.Interrupted(ctx) {
				break
			}
		}
		performed++
		var flipped bool
		if s.SingleFlip {
			// Ablation: conventional SA step — one uniformly chosen
			// variable per step, Metropolis acceptance.
			v := rng.Intn(n)
			if delta := st.DeltaEnergy(v); delta <= 0 || rng.Float64() < math.Exp(-delta/prm.temps[step]) {
				st.Flip(v)
				flipped = true
			}
		} else {
			// The last step readies a step that never runs; its draw
			// comes from this run's own stream, which ends here.
			flipped = s.parallelTrialStep(&c, prm.temps[min(step+1, last)], prm.offUnit)
		}
		if !flipped {
			continue
		}
		flips++
		if best.Observe(st) {
			rt.Observe(step, best.Energy())
		}
	}
	rt.Finish(performed, flips, int64(performed))
	return solver.Sample{Assignment: best.Assignment(), Energy: best.Energy()}, performed
}

// chain is one Markov chain of the parallel-trial step: its state and
// buffered RNG stream, the dynamic offset, and the pending step's Exp(1)
// threshold variate with its threshold θ and the number of deltas below θ.
type chain struct {
	st     *qubo.State
	offset float64
	exp    float64
	theta  float64
	count  int
	draws
}

// start begins a zero chain on st and rng's stream, drawing the first
// step's variate.
func (c *chain) start(st *qubo.State, rng *rand.Rand) {
	c.st = st
	c.draws.start(rng)
	c.exp = c.expVariate()
}

// collect counts the pending step's candidates at temperature temp with a
// full pass over the deltas. A chain needs it before its first step and
// whenever its state or offset was changed outside parallelTrialStep.
func (c *chain) collect(temp float64) {
	c.theta = c.offset + float64(temp*c.exp)
	c.count = c.st.CountBelow(c.theta)
}

// parallelTrialStep performs the chain's pending Digital Annealer
// Monte-Carlo step and readies the next one at temperature next; annealing
// and tempering share this exact hardware step. It reports whether a flip
// was performed.
//
// Variable i passes the Metropolis test rand < exp(−(ΔE_i−offset)/T)
// exactly when ΔE_i < offset − T·ln(rand). The step draws one Exp(1)
// variate for all variables, accepts the variables whose delta is below
// the shared threshold θ = offset + T·Exp(1), and flips one of them chosen
// uniformly: the k-th below θ for k drawn from [0, count). The shared θ
// gives each variable its Metropolis marginal acceptance probability p_i,
// but it is not Aramon et al.'s step, which tries every variable with its
// own draw: with every delta above the offset, the shared θ accepts some
// flip with probability max_i p_i, theirs with 1 − Π_i(1 − p_i)
// (TestSharedThresholdStepDistribution). Drawing the next step's variate
// right after this step's choice keeps the RNG sequence of a
// step-at-a-time loop (Exp, Intn, Exp, …) while letting the flip count
// the next step's candidates in the same pass over the deltas. A rejected
// step raises the offset and counts afresh.
func (s *Solver) parallelTrialStep(c *chain, next, offUnit float64) bool {
	if c.count == 0 {
		if !s.DisableDynamicOffset {
			c.offset += offUnit
		}
		c.exp = c.expVariate()
		c.collect(next)
		return false
	}
	i := c.st.PickBelow(c.theta, c.intn(c.count))
	c.offset = 0
	c.exp = c.expVariate()
	c.theta = c.offset + float64(next*c.exp)
	c.count = c.st.FlipCount(i, c.theta)
	return true
}

// temperatureRange derives the exponential schedule endpoints from the
// model's coefficient magnitudes: hot enough to accept the worst move with
// probability ~1/2, cold enough to freeze the smallest move.
func temperatureRange(m *qubo.Model) (hot, cold float64) {
	largest, smallest := m.DeltaRange()
	hot, cold = largest/math.Ln2, smallest/math.Log(100)
	if cold >= hot {
		cold = hot / 100
	}
	return hot, cold
}

// offsetUnit is the step by which a stuck chain's dynamic offset grows:
// the model's mean absolute coefficient, or 1 when it has none.
func offsetUnit(m *qubo.Model) float64 {
	if u := meanAbsCoefficient(m); u != 0 {
		return u
	}
	return 1
}

func meanAbsCoefficient(m *qubo.Model) float64 {
	var sum float64
	var count int
	for i := 0; i < m.NumVariables(); i++ {
		if l := m.Linear(i); l != 0 {
			sum += math.Abs(l)
			count++
		}
	}
	for _, t := range m.Terms() {
		sum += math.Abs(t.Coeff)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
