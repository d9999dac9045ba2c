package core

import (
	"context"
	"fmt"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solver"
)

// SolveDefault optimises the *unpartitioned* MQO QUBO using the device's
// own large-problem handling — the "Default" processing mode of the
// evaluation (e.g. Fujitsu's vendor partitioning on the DA). Problems
// within capacity are solved directly; problems beyond capacity require the
// device to implement solver.LargeSolver.
func SolveDefault(ctx context.Context, p *mqo.Problem, opt Options) (*Outcome, error) {
	start := time.Now()
	var tm PhaseTimings
	_, ph := obs.StartPhase(ctx, "encode")
	pp, err := encoding.PrepareMQO(p)
	if err != nil {
		return nil, err
	}
	enc := pp.Encoding()
	tm.Encode = ph.End(obs.Event{N: 1})
	dev := opt.Device
	if c := dev.Capacity(); c > 0 && enc.Model.NumVariables() > c {
		ls, ok := dev.(solver.LargeSolver)
		if !ok {
			return nil, fmt.Errorf("core: problem needs %d variables but device %s caps at %d and offers no default partitioning", enc.Model.NumVariables(), dev.Name(), c)
		}
		dev = largeDevice{ls}
	}
	best, sweeps, st, err := solveEncoded(ctx, dev, enc, opt.Runs, opt.TotalSweeps, opt.Seed, nil, opt.Parallelism)
	var degs []Degradation
	if err != nil {
		if opt.FailFast || isPipelineError(err) {
			return nil, err
		}
		var d Degradation
		best, d = degrade(ctx, p, -1, opt.Device.Name(), err)
		degs = append(degs, d)
	}
	tm.Anneal, tm.Decode = st.anneal, st.decode
	out, err := finalize(p, best, StrategyDefault, start)
	if err != nil {
		return nil, err
	}
	out.NumPartitions = 1
	out.Sweeps = sweeps
	out.Timings = tm
	out.Degradations = degs
	return out, nil
}

// largeDevice routes Solve to the device's own large-problem handling
// (SolveLarge), so the default strategy anneals and decodes through
// solveEncoded like every other strategy.
type largeDevice struct{ solver.LargeSolver }

func (d largeDevice) Capacity() int { return 0 }

func (d largeDevice) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	return d.SolveLarge(ctx, req)
}
