// Package hqa simulates the D-Wave Hybrid Quantum Annealer (HQA) the paper
// benchmarks: a hybrid workflow (D-Wave tech report 14-1039A-B) that
// coordinates optimisation classically and repeatedly queries a quantum
// annealer on limited-size subproblems suggesting search-space regions to
// explore. The simulator reproduces the structure that determines the
// paper's results:
//
//   - a classical orchestration loop maintaining an incumbent assignment
//     and improving it by steepest descent;
//   - iterative extraction of high-impact subproblems no larger than the
//     QPU's effective capacity, solved by a *simulated QPU*: an annealer
//     whose couplings are perturbed by Gaussian control noise and truncated
//     to limited parameter precision, modelling the analog imperfections
//     (Sec. 1, "hardware noise ... solution accuracy quickly degrades");
//   - re-integration of subproblem solutions only when they improve the
//     incumbent; and
//   - a minimum-time-limit model growing with problem size, which is why
//     the paper could not afford HQA runs beyond 500 queries.
package hqa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// QPUCapacity is the effective subproblem size of the simulated quantum
// annealer. Contemporary annealers feature roughly 5,600 qubits; after
// minor-embedding overhead the cliques they can host are far smaller, so
// hybrid solvers query subproblems of at most a few hundred variables.
const QPUCapacity = 256

// Solver simulates the hybrid quantum annealer. The zero value models the
// production service.
type Solver struct {
	// SubCapacity is the maximum subproblem size sent to the simulated
	// QPU; zero means QPUCapacity.
	SubCapacity int
	// Noise is the relative standard deviation of Gaussian control noise
	// applied to each coefficient before a QPU solve; zero means 0.03.
	Noise float64
	// PrecisionBits models the limited digital-to-analog precision of QPU
	// parameters; coefficients are quantised to this many bits relative to
	// the largest magnitude. Zero means 8 bits.
	PrecisionBits int
	// DefaultIterations is the hybrid-loop iteration budget when a request
	// leaves Sweeps zero; zero derives it from problem size.
	DefaultIterations int
	// Seedless QPU subsolves use this many annealing steps; zero means 400.
	QPUSteps int
}

// Name implements solver.Solver.
func (s *Solver) Name() string { return "hqa" }

// Capacity implements solver.Solver. The hybrid service accepts problems up
// to a million variables — effectively unbounded for MQO purposes — because
// the decomposition happens inside the solver.
func (s *Solver) Capacity() int { return 0 }

func (s *Solver) subCapacity() int {
	if s.SubCapacity > 0 {
		return s.SubCapacity
	}
	return QPUCapacity
}

func (s *Solver) noise() float64 {
	if s.Noise > 0 {
		return s.Noise
	}
	return 0.03
}

func (s *Solver) precisionBits() int {
	if s.PrecisionBits > 0 {
		return s.PrecisionBits
	}
	return 8
}

func (s *Solver) qpuSteps() int {
	if s.QPUSteps > 0 {
		return s.QPUSteps
	}
	return 400
}

func (s *Solver) iterations(req solver.Request) int {
	if req.Sweeps > 0 {
		return req.Sweeps
	}
	if s.DefaultIterations > 0 {
		return s.DefaultIterations
	}
	n := req.Model.NumVariables()
	it := n / s.subCapacity() * 4
	if it < 12 {
		it = 12
	}
	if it > 400 {
		it = 400
	}
	return it
}

// MinTimeLimit models the service's minimum optimisation time as a function
// of problem size: a 3 s floor plus a linear component for large problems.
// The paper chooses this minimum per problem; it is the reason HQA
// experiments stop at 500 queries.
func MinTimeLimit(numVariables int) time.Duration {
	base := 3 * time.Second
	if numVariables > 10000 {
		base += time.Duration(numVariables-10000) * time.Millisecond / 2
	}
	return base
}

// Solve implements solver.Solver. Request.Runs > 1 executes that many
// independent hybrid restarts through solver.Runs (one sample each); zero
// keeps the service's single-workflow behaviour.
func (s *Solver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	m := req.Model
	if m == nil || m.NumVariables() == 0 {
		return nil, fmt.Errorf("hqa: empty model")
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 1
	}
	iters := s.iterations(req)
	return solver.Runs(ctx, req, "hqa", runs, func(st *qubo.State, rng *rand.Rand, rt *obs.RunTrace) (solver.Sample, int) {
		return s.hybridRun(ctx, m, iters, st, rng, rt)
	}), nil
}

// hybridRun executes one classical-orchestration workflow: descend to a
// local minimum, then repeatedly carve out a high-impact subproblem, solve
// it on the simulated QPU and re-integrate improvements. rt records the
// incumbent trajectory (per hybrid iteration) and counts integrated QPU
// suggestions as "flips" out of the iterations proposed.
func (s *Solver) hybridRun(ctx context.Context, m *qubo.Model, iters int, st *qubo.State, rng *rand.Rand, rt *obs.RunTrace) (solver.Sample, int) {
	descend(st)
	var best qubo.BestTracker
	best.Observe(st)
	rt.Observe(0, best.Energy())
	sweeps := 0
	var integrated int64
	performedIters := 0
	for it := 0; it < iters; it++ {
		if solver.Interrupted(ctx) {
			break
		}
		block := s.selectSubproblem(m, st, rng)
		sub := st.ClampedSubModel(block)
		assignment, performed := s.qpuSolve(sub, rng)
		sweeps += performed
		var ok bool
		if st, ok = integrate(st, block, assignment); ok {
			integrated++
		}
		performedIters++
		if best.Observe(st) {
			rt.Observe(sweeps, best.Energy())
		}
	}
	rt.Finish(sweeps, integrated, int64(performedIters))
	return solver.Sample{Assignment: best.Assignment(), Energy: best.Energy()}, sweeps
}

// integrate re-integrates a QPU suggestion for block into the incumbent
// st: it sets the block's variables, descends, and keeps the result only
// when its energy is below the incumbent's. The descent may flip variables
// outside the block, so a rejection returns a copy of the whole
// pre-integration state. It returns the incumbent to continue from and
// whether the suggestion was adopted.
func integrate(st *qubo.State, block []int, assignment []int8) (*qubo.State, bool) {
	prev := st.Copy()
	for bi, v := range block {
		if st.Get(v) != assignment[bi] {
			st.Flip(v)
		}
	}
	descend(st)
	if st.Energy() >= prev.Energy() {
		return prev, false
	}
	return st, true
}

// descend applies classical steepest descent to a local minimum: the
// cheap general-purpose half of the hybrid workflow.
func descend(st *qubo.State) {
	n := st.Model().NumVariables()
	for {
		improved := false
		for v := 0; v < n; v++ {
			if st.DeltaEnergy(v) < 0 {
				st.Flip(v)
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}

// selectSubproblem extracts up to SubCapacity variables around the most
// "frustrated" region of the incumbent: variables whose flip would change
// the energy the least (close to a transition), expanded along the
// interaction graph — the hybrid framework's suggestion of which search
// region to explore next. A random offset varies the region per iteration.
func (s *Solver) selectSubproblem(m *qubo.Model, st *qubo.State, rng *rand.Rand) []int {
	n := m.NumVariables()
	capacity := s.subCapacity()
	if n <= capacity {
		block := make([]int, n)
		for i := range block {
			block[i] = i
		}
		return block
	}
	type scored struct {
		v     int
		score float64
	}
	sc := make([]scored, n)
	for v := 0; v < n; v++ {
		// Lower |ΔE| means the variable sits near a decision boundary;
		// jitter breaks ties and diversifies successive subproblems.
		sc[v] = scored{v: v, score: math.Abs(st.DeltaEnergy(v)) * (0.5 + rng.Float64())}
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].score < sc[j].score })
	block := make([]int, 0, capacity)
	seen := make(map[int]bool, capacity)
	for _, cand := range sc {
		if len(block) >= capacity {
			break
		}
		if !seen[cand.v] {
			seen[cand.v] = true
			block = append(block, cand.v)
		}
	}
	sort.Ints(block)
	return block
}

// qpuSolve simulates a quantum annealer solve of sub: coefficients are
// perturbed by Gaussian control noise and quantised to limited precision,
// then an anneal runs on the *perturbed* model. The device tracks its best
// state by the energies it can observe — the noisy ones — which is exactly
// how analog imperfections degrade solution accuracy; the caller
// re-evaluates the returned assignment on the true model before adopting it.
func (s *Solver) qpuSolve(sub *qubo.Model, rng *rand.Rand) ([]int8, int) {
	noisy := s.perturb(sub, rng)
	st := qubo.NewRandomState(noisy, rng)
	var best qubo.BestTracker
	best.Observe(st)
	steps := s.qpuSteps()
	hot, cold := noisy.MaxAbsCoefficient(), noisy.MaxAbsCoefficient()/200
	if hot == 0 {
		hot, cold = 1, 0.01
	}
	n := noisy.NumVariables()
	for step := 0; step < steps; step++ {
		temp := hot * math.Pow(cold/hot, float64(step)/float64(steps))
		for v := 0; v < n; v++ {
			delta := st.DeltaEnergy(v)
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				st.Flip(v)
			}
		}
		best.Observe(st)
	}
	return best.Assignment(), steps
}

// perturb applies the noise and precision model to a copy of sub.
func (s *Solver) perturb(sub *qubo.Model, rng *rand.Rand) *qubo.Model {
	scale := sub.MaxAbsCoefficient()
	if scale == 0 {
		return sub
	}
	sigma := s.noise() * scale
	levels := math.Exp2(float64(s.precisionBits() - 1))
	quant := scale / levels
	q := func(c float64) float64 {
		c += rng.NormFloat64() * sigma
		return math.Round(c/quant) * quant
	}
	b := qubo.NewBuilder(sub.NumVariables())
	for i := 0; i < sub.NumVariables(); i++ {
		if c := sub.Linear(i); c != 0 {
			b.AddLinear(i, q(c))
		}
	}
	for _, t := range sub.Terms() {
		b.AddQuadratic(t.I, t.J, q(t.Coeff))
	}
	return b.Build()
}
