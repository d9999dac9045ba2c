package da

import (
	"context"
	"math"
	"math/rand"

	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// Parallel tempering is the Digital Annealer's second operating mode
// described by Aramon et al. (2019): instead of sweeping one state through
// a cooling schedule, the device holds a ladder of replicas at *fixed*
// temperatures, advances each with the same parallel-trial Monte-Carlo
// step, and periodically attempts replica exchanges between neighbouring
// temperatures with the Metropolis criterion
//
//	P(swap i↔i+1) = min(1, exp((1/T_i − 1/T_{i+1})·(E_i − E_{i+1}))).
//
// Hot replicas roam the landscape while cold replicas exploit, and swaps
// carry good configurations down the ladder — stronger than annealing on
// rugged energy landscapes at the cost of running several replicas.

// PTReplicasDefault is the default temperature-ladder size.
const PTReplicasDefault = 8

// PT is the Digital Annealer in parallel-tempering mode as a device: its
// Solve runs SolvePT. Name and Capacity stay the DA's, so metric names and
// degradation records do not move.
type PT struct{ *Solver }

// Solve implements solver.Solver through SolvePT.
func (p *PT) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	return p.SolvePT(ctx, req)
}

// SolvePT runs the Digital Annealer in parallel-tempering mode. The
// request's Sweeps is the per-replica Monte-Carlo step budget; exchanges
// are attempted every exchange interval. Samples of the result are the
// per-replica best states.
func (s *Solver) SolvePT(ctx context.Context, req solver.Request) (*solver.Result, error) {
	m := req.Model
	if m == nil || m.NumVariables() == 0 {
		return nil, errEmptyModel
	}
	if err := solver.CheckCapacity(s, m); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(req.Seed))
	replicas := s.PTReplicas
	if replicas <= 0 {
		replicas = PTReplicasDefault
	}
	steps := s.steps(req) / replicas
	if steps < 100 {
		steps = 100
	}
	tHot, tCold := temperatureRange(m)
	// Geometric temperature ladder from cold (index 0) to hot.
	temps := make([]float64, replicas)
	for i := range temps {
		frac := float64(i) / float64(max(replicas-1, 1))
		temps[i] = tCold * math.Pow(tHot/tCold, frac)
	}
	// One chain per ladder slot. Its RNG stream and pending threshold
	// variate stay with the slot; exchanges move states and offsets
	// between slots.
	chains := make([]chain, replicas)
	for i := range chains {
		st := solver.InitialState(req, i, replicas, rng)
		chains[i].start(st, rand.New(rand.NewSource(rng.Int63())))
	}
	// Per-slot best trackers: replicas interact only at exchange barriers,
	// so between exchanges every ladder slot advances independently on the
	// worker pool with its own pre-derived RNG stream — results match the
	// sequential schedule for every worker count. The global best is the
	// minimum over all slot observations, taken at the end.
	trackers := make([]qubo.BestTracker, replicas)
	for i := range chains {
		trackers[i].Observe(chains[i].st)
	}
	offUnit := offsetUnit(m)
	exchangeEvery := 20
	workers := solver.Workers(req.Parallelism)
	performed := 0
	// Observability: one RunTrace covers the whole ladder (the ladder is one
	// logical anneal); per-slot flip counters and the incumbent scan after
	// each segment exist only when a sink is present, so the disabled path
	// allocates and computes exactly what the pre-instrumentation code did.
	sink := obs.FromContext(ctx)
	var rt *obs.RunTrace
	var flipCounts []int64
	var pool solver.PoolStats
	bestSeen := math.Inf(1)
	if sink.Enabled() {
		rt = sink.StartRun("da-pt", obs.LabelFromContext(ctx), 0)
		flipCounts = make([]int64, replicas)
		for _, t := range trackers {
			if t.Energy() < bestSeen {
				bestSeen = t.Energy()
			}
		}
		rt.Observe(0, bestSeen)
	}
	for done := 0; done < steps; done += exchangeEvery {
		if solver.Interrupted(ctx) {
			break
		}
		segment := exchangeEvery
		if rest := steps - done; segment > rest {
			segment = rest
		}
		body := func(i int) {
			// An exchange may have replaced the slot's state and offset, so
			// every segment starts with a fresh candidate pass.
			c := &chains[i]
			c.collect(temps[i])
			for k := 0; k < segment; k++ {
				if s.parallelTrialStep(c, temps[i], offUnit) && flipCounts != nil {
					flipCounts[i]++
				}
				trackers[i].Observe(c.st)
			}
		}
		if rt != nil {
			pool.Add(solver.ForEachRunStats(replicas, workers, body))
			improved := false
			for i := range trackers {
				if e := trackers[i].Energy(); e < bestSeen {
					bestSeen, improved = e, true
				}
			}
			if improved {
				rt.Observe((done+segment)*replicas, bestSeen)
			}
		} else {
			solver.ForEachRun(replicas, workers, body)
		}
		performed += segment
		// A full interval ends with an exchange pass; the trailing partial
		// segment (if any) does not, matching the per-step schedule.
		if segment == exchangeEvery {
			for i := 0; i+1 < replicas; i++ {
				a, b := &chains[i], &chains[i+1]
				delta := (1/temps[i] - 1/temps[i+1]) * (a.st.Energy() - b.st.Energy())
				if delta >= 0 || rng.Float64() < math.Exp(delta) {
					a.st, b.st = b.st, a.st
					a.offset, b.offset = b.offset, a.offset
				}
			}
		}
	}
	if rt != nil {
		var flips int64
		for _, f := range flipCounts {
			flips += f
		}
		rt.Finish(performed*replicas, flips, int64(performed*replicas))
		sink.Pool("da-pt", obs.LabelFromContext(ctx), pool.Runs, pool.Workers, pool.Busy, pool.Wall)
	}
	bestIdx := 0
	for i := 1; i < replicas; i++ {
		if trackers[i].Energy() < trackers[bestIdx].Energy() {
			bestIdx = i
		}
	}
	res := &solver.Result{Sweeps: performed * replicas}
	res.Samples = append(res.Samples, solver.Sample{Assignment: trackers[bestIdx].Assignment(), Energy: trackers[bestIdx].Energy()})
	for _, c := range chains {
		res.Samples = append(res.Samples, solver.Sample{Assignment: c.st.Assignment(), Energy: c.st.Energy()})
	}
	res.SortSamples()
	if runs := req.Runs; runs > 0 && runs < len(res.Samples) {
		res.Samples = res.Samples[:runs]
	}
	return res, nil
}
