package bench

import (
	"context"
	"fmt"
	"time"

	"incranneal/internal/da"
	"incranneal/internal/encoding"
	"incranneal/internal/hqa"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
	"incranneal/internal/va"
	"incranneal/internal/workload"
)

// DeviceShootout reproduces the paper's device comparison (contribution 3:
// "benchmark the performance of two contemporary quantum and
// quantum-inspired HW types ... identify the most capable device"),
// extended with the NEC Vector Annealer the paper assessed and dismissed
// (Sec. 2.3) and the DA's parallel-tempering mode: every device minimises
// the same encoded MQO QUBOs under a comparable budget, reporting best
// energies and solve times.
func DeviceShootout(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "devices",
		Title:  "Quantum(-inspired) device comparison on identical MQO QUBOs",
		Header: cfg.headerLines(scale),
	}
	type device struct {
		name  string
		solve func(ctx context.Context, req solver.Request) (*solver.Result, error)
	}
	daDev := &da.Solver{CapacityVars: 1 << 20}
	devices := []device{
		{"DA", daDev.Solve},
		{"DA (PT)", daDev.SolvePT},
		{"VA", (&va.Solver{}).Solve},
		{"HQA", (&hqa.Solver{}).Solve},
		{"SA", (&sa.Solver{}).Solve},
	}
	r.Columns = []string{"instance", "vars"}
	for _, d := range devices {
		r.Columns = append(r.Columns, d.name+" energy", d.name+" time")
	}
	for inst := 0; inst < scale.Instances; inst++ {
		in, err := workload.GenerateSweep(workload.SweepConfig{
			Queries: scale.QuerySet[0], PPQ: scale.StandardPPQ,
			Communities: 4, DensityLow: 0.05, DensityHigh: 1.0,
			Seed: workload.ClassSeed("devices", inst, 0, 0),
		})
		if err != nil {
			return nil, err
		}
		enc, err := encoding.EncodeMQO(in.Problem)
		if err != nil {
			return nil, err
		}
		row := []string{in.Problem.Name, fmt.Sprintf("%d", enc.Model.NumVariables())}
		for _, d := range devices {
			req := solver.Request{
				Model: enc.Model, Runs: cfg.Runs,
				Sweeps: deviceSweeps(d.name, cfg, enc.Model.NumVariables()),
				Seed:   workload.ClassSeed("devices-run", inst, 0, 0),
			}
			start := time.Now()
			res, err := d.solve(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("device %s: %w", d.name, err)
			}
			best, ok := res.Best()
			if !ok {
				return nil, fmt.Errorf("device %s: no samples", d.name)
			}
			row = append(row,
				fmt.Sprintf("%.1f", best.Energy),
				time.Since(start).Round(time.Millisecond).String())
		}
		r.AddRow(row...)
	}
	r.Notes = append(r.Notes,
		"energies are best QUBO energies (lower is better); budgets are normalised to comparable step counts per device",
		"the paper finds the DA dominating the HQA and both dominating SA; the VA was assessed and found dominated by the DA (Sec. 2.3)")
	return r, nil
}

// deviceSweeps normalises budgets: the DA counts single-flip steps, the VA
// full sweeps, the HQA hybrid iterations, and SA full sweeps.
func deviceSweeps(name string, cfg Config, vars int) int {
	switch name {
	case "DA", "DA (PT)":
		return cfg.SweepsPerVar * vars
	case "VA":
		return cfg.SweepsPerVar / 4
	case "SA":
		return 1000
	default: // HQA derives its own iteration budget
		return 0
	}
}
