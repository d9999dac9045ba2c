package core

import (
	"context"
	"fmt"
	"time"

	"incranneal/internal/mqo"
	"incranneal/internal/solver"
)

// SolveDefault optimises the *unpartitioned* MQO QUBO using the device's
// own large-problem handling — the "Default" processing mode of the
// evaluation (e.g. Fujitsu's vendor partitioning on the DA). Problems
// within capacity are solved directly; problems beyond capacity require the
// device to implement solver.LargeSolver.
func SolveDefault(ctx context.Context, p *mqo.Problem, opt Options) (*Outcome, error) {
	start := time.Now()
	if c := opt.Device.Capacity(); c > 0 && p.NumPlans() > c {
		ls, ok := opt.Device.(solver.LargeSolver)
		if !ok {
			return nil, fmt.Errorf("core: problem needs %d variables but device %s caps at %d and offers no default partitioning", p.NumPlans(), opt.Device.Name(), c)
		}
		opt.Device = largeDevice{ls}
	}
	return solveWhole(ctx, p, opt, StrategyDefault, start)
}

// largeDevice routes Solve to the device's own large-problem handling
// (SolveLarge), so the default strategy anneals and decodes through
// solveEncoded like every other strategy.
type largeDevice struct{ solver.LargeSolver }

func (d largeDevice) Capacity() int { return 0 }

func (d largeDevice) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	return d.SolveLarge(ctx, req)
}
