// Custom device: the paper's contribution 4 is a framework decoupling MQO
// from hardware constraints — "device-independent and compatible with all
// existing and future quantum-inspired annealing systems". This example
// demonstrates that boundary by plugging a hand-written device (a small
// tabu-search QUBO solver with an artificial 64-variable capacity) into the
// unchanged partition + DSS pipeline via Options.CustomDevice.
//
// Run with: go run ./examples/customdevice
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"incranneal"
	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// tabuSolver is a deliberately simple QUBO minimiser: steepest-descent
// with a tabu list, restarted a few times. It knows nothing about MQO —
// the pipeline feeds it partition-sized QUBOs and steers it through DSS
// like any annealer.
type tabuSolver struct {
	capacity int
	tenure   int
}

func (t *tabuSolver) Name() string  { return "tabu" }
func (t *tabuSolver) Capacity() int { return t.capacity }

// Solve hands the restarts to solver.Runs, which seeds, dispatches, traces
// and collects them, so the device honours Parallelism, warm starts and
// cancellation like the built-in annealers; the device writes only the
// per-run loop.
func (t *tabuSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	if err := solver.CheckCapacity(t, req.Model); err != nil {
		return nil, err
	}
	n := req.Model.NumVariables()
	runs := req.Runs
	if runs <= 0 {
		runs = 4
	}
	iters := req.Sweeps
	if iters <= 0 {
		iters = 50 * n
	}
	return solver.Runs(ctx, req, t.Name(), runs, func(st *qubo.State, _ *rand.Rand, rt *obs.RunTrace) (solver.Sample, int) {
		best := st.Copy()
		rt.Observe(0, best.Energy())
		tabuUntil := make([]int, n)
		it := 0
		for ; it < iters && !solver.Interrupted(ctx); it++ {
			// Best admissible single flip; tabu moves allowed only when
			// they improve on the incumbent (aspiration).
			bestV, bestDelta := -1, 0.0
			for v := 0; v < n; v++ {
				d := st.DeltaEnergy(v)
				if tabuUntil[v] > it && st.Energy()+d >= best.Energy() {
					continue
				}
				if bestV < 0 || d < bestDelta {
					bestV, bestDelta = v, d
				}
			}
			if bestV < 0 {
				break
			}
			st.Flip(bestV)
			tabuUntil[bestV] = it + t.tenure
			if st.Energy() < best.Energy() {
				best = st.Copy()
				rt.Observe(it+1, best.Energy())
			}
		}
		rt.Finish(it, int64(it), int64(it))
		return solver.Sample{Assignment: best.Assignment(), Energy: best.Energy()}, it
	}), nil
}

func main() {
	p, err := incranneal.GenerateSweep(incranneal.SweepConfig{
		Queries: 80, PPQ: 5, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.8,
		Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %d queries, %d plans (device capacity 64 → partitioning required)\n",
		p.NumQueries(), p.NumPlans())

	dev := &tabuSolver{capacity: 64, tenure: 7}
	out, err := incranneal.Solve(context.Background(), p, incranneal.Options{
		CustomDevice: dev,
		Runs:         4,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	_, greedyCost := incranneal.Greedy(p)
	fmt.Printf("tabu device through the incremental pipeline:\n")
	fmt.Printf("  partitions: %d\n", out.NumPartitions)
	fmt.Printf("  reapplied:  %.1f savings via DSS\n", out.ReappliedSavings)
	fmt.Printf("  cost:       %.1f (greedy: %.1f)\n", out.Cost, greedyCost)
}
