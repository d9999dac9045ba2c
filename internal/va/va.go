// Package va simulates the NEC Vector Annealer, the quantum-inspired
// alternative the paper assessed alongside the Digital Annealer
// (Sec. 2.3): a hardware-augmented simulated-annealing variant running on
// a vector engine. The device anneals many replicas of the problem in
// lockstep — the vector units process replicas SIMD-style — and
// periodically resamples the replica population towards its best members.
//
// Unlike the Digital Annealer it performs neither parallel-trial
// acceptance nor dynamic offset escapes, which is why the paper found
// "both its optimisation accuracy and runtime performance to be dominated
// by the DA"; the simulator reproduces that ranking and exists so the
// repository covers every device the paper discusses.
package va

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// HardwareCapacity is the variable capacity of the NEC Vector Annealer's
// largest advertised configuration.
const HardwareCapacity = 100000

// Solver is a Vector Annealer simulator. The zero value models the real
// device: 16 replicas annealed in lockstep with resampling every 10% of
// the schedule.
type Solver struct {
	// CapacityVars is the device variable capacity; zero means
	// HardwareCapacity.
	CapacityVars int
	// Replicas is the vector width — the number of states annealed in
	// lockstep. Zero means 16.
	Replicas int
	// ResampleEvery controls how often (in sweeps) the replica population
	// is resampled towards its best members; zero means every 10% of the
	// schedule, negative disables resampling.
	ResampleEvery int
}

// Name implements solver.Solver.
func (s *Solver) Name() string { return "va" }

// Capacity implements solver.Solver.
func (s *Solver) Capacity() int {
	if s.CapacityVars > 0 {
		return s.CapacityVars
	}
	return HardwareCapacity
}

func (s *Solver) replicas() int {
	if s.Replicas > 0 {
		return s.Replicas
	}
	return 16
}

// sweeps is the request's Monte-Carlo sweep budget (each replica attempts
// one flip per variable per sweep), 500 when it leaves Sweeps zero.
func (s *Solver) sweeps(req solver.Request) int {
	if req.Sweeps > 0 {
		return req.Sweeps
	}
	return 500
}

// Solve implements solver.Solver. One "run" of the request corresponds to
// one replica's final sample, so the result carries min(Runs, Replicas)
// samples drawn from the annealed population.
func (s *Solver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	m := req.Model
	if m == nil || m.NumVariables() == 0 {
		return nil, fmt.Errorf("va: empty model")
	}
	if err := solver.CheckCapacity(s, m); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(req.Seed))
	// Replica slots get their own RNG streams, derived from the master
	// seed before the anneal starts: the slot RNG stays with the slot even
	// when resampling moves states between slots, so every Metropolis draw
	// is independent of how slots are scheduled across workers and results
	// are identical for every Parallelism setting. The master rng is only
	// consumed here and at resampling barriers.
	replicas := make([]*qubo.State, s.replicas())
	rngs := make([]*rand.Rand, len(replicas))
	for i := range replicas {
		replicas[i] = solver.InitialState(req, i, len(replicas), rng)
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	var best qubo.BestTracker
	best.Observe(replicas[0])
	sweeps := s.sweeps(req)
	resample := s.ResampleEvery
	if resample == 0 {
		resample = sweeps/10 + 1
	}
	hot, cold := temperatureRange(m)
	n := m.NumVariables()
	workers := solver.Workers(req.Parallelism)
	performed := 0
	// Observability: the lockstep population is one logical anneal, so a
	// single RunTrace covers the solve. Per-replica flip counters and the
	// dispatch-stats aggregation exist only when a sink is present; the
	// disabled path allocates exactly what the uninstrumented code did.
	sink := obs.FromContext(ctx)
	var rt *obs.RunTrace
	var flipCounts []int64
	var pool solver.PoolStats
	if sink.Enabled() {
		rt = sink.StartRun("va", obs.LabelFromContext(ctx), 0)
		flipCounts = make([]int64, len(replicas))
		rt.Observe(0, best.Energy())
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		if solver.Interrupted(ctx) {
			break
		}
		temp := hot * math.Pow(cold/hot, float64(sweep)/float64(max(sweeps-1, 1)))
		// Vector step: every replica sweeps the variables at the same
		// temperature — the lockstep pattern the vector engine pipelines —
		// and the replicas are mutually independent within a sweep, so the
		// worker pool processes them concurrently between barriers.
		body := func(i int) {
			st, r := replicas[i], rngs[i]
			for v := 0; v < n; v++ {
				delta := st.DeltaEnergy(v)
				if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
					st.Flip(v)
					if flipCounts != nil {
						flipCounts[i]++
					}
				}
			}
		}
		if rt != nil {
			pool.Add(solver.ForEachRunStats(len(replicas), workers, body))
		} else {
			solver.ForEachRun(len(replicas), workers, body)
		}
		performed++
		for _, st := range replicas {
			if best.Observe(st) {
				rt.Observe(performed, best.Energy())
			}
		}
		if resample > 0 && sweep > 0 && sweep%resample == 0 {
			resamplePopulation(replicas, rng)
		}
	}
	if rt != nil {
		var flips int64
		for _, f := range flipCounts {
			flips += f
		}
		rt.Finish(performed, flips, int64(performed)*int64(len(replicas))*int64(n))
		sink.Pool("va", obs.LabelFromContext(ctx), pool.Runs, pool.Workers, pool.Busy, pool.Wall)
	}
	runs := req.Runs
	if runs <= 0 || runs > len(replicas) {
		runs = len(replicas)
	}
	res := &solver.Result{Sweeps: performed}
	res.Samples = append(res.Samples, solver.Sample{Assignment: best.Assignment(), Energy: best.Energy()})
	for i := 1; i < runs; i++ {
		res.Samples = append(res.Samples, solver.Sample{
			Assignment: replicas[i].Assignment(), Energy: replicas[i].Energy(),
		})
	}
	res.SortSamples()
	return res, nil
}

// resamplePopulation replaces the worst half of the replicas with copies
// of the best half, keeping population diversity through subsequent
// divergent Metropolis trajectories.
func resamplePopulation(replicas []*qubo.State, rng *rand.Rand) {
	// Partial selection sort is fine at vector widths of ~16.
	for i := 0; i < len(replicas); i++ {
		for j := i + 1; j < len(replicas); j++ {
			if replicas[j].Energy() < replicas[i].Energy() {
				replicas[i], replicas[j] = replicas[j], replicas[i]
			}
		}
	}
	half := len(replicas) / 2
	for i := half; i < len(replicas); i++ {
		replicas[i] = replicas[rng.Intn(max(half, 1))].Copy()
	}
}

// temperatureRange mirrors the coefficient-scaled schedule of the other
// annealers.
func temperatureRange(m *qubo.Model) (hot, cold float64) {
	largest, smallest := m.DeltaRange()
	hot, cold = largest/math.Ln2, smallest/math.Log(100)
	if cold >= hot {
		cold = hot / 100
	}
	return hot, cold
}
