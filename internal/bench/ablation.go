package bench

import (
	"context"
	"fmt"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/partition"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

// The ablations isolate the design choices DESIGN.md calls out: DSS,
// partition post-processing, the Theorem 4.5 Lagrange multiplier, and the
// two Digital Annealer algorithm enhancements (dynamic offset, parallel
// trial). Each returns a Report comparing the design choice against its
// ablated variant on a community-structured corpus.

// ablationInstance builds the standard ablation corpus instance.
func ablationInstance(scale Scale, inst int) (*mqo.Problem, error) {
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: scale.QuerySet[len(scale.QuerySet)-1], PPQ: scale.StandardPPQ,
		Communities: 4, DensityLow: 0.05, DensityHigh: 1.0,
		Seed: workload.ClassSeed("ablation", inst, 0, 0),
	})
	if err != nil {
		return nil, err
	}
	return in.Problem, nil
}

// AblationDSS compares the incremental strategy with DSS enabled and
// disabled (sequential processing without cost re-application).
func AblationDSS(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:      "ablation-dss",
		Title:   "Dynamic search steering on vs. off (sequential, no re-applied savings)",
		Header:  cfg.headerLines(scale),
		Columns: []string{"instance", "cost with DSS", "cost without DSS", "reapplied savings"},
	}
	for inst := 0; inst < scale.Instances; inst++ {
		p, err := ablationInstance(scale, inst)
		if err != nil {
			return nil, err
		}
		opt := core.Options{
			Device: &da.Solver{CapacityVars: cfg.DACapacity}, Runs: cfg.Runs,
			TotalSweeps: daSweeps(cfg, p), Seed: workload.ClassSeed("abl-dss", inst, 0, 0),
		}
		with, err := core.SolveIncremental(ctx, p, opt)
		if err != nil {
			return nil, err
		}
		opt.DisableDSS = true
		without, err := core.SolveIncremental(ctx, p, opt)
		if err != nil {
			return nil, err
		}
		r.AddRow(p.Name,
			fmt.Sprintf("%.1f", with.Cost),
			fmt.Sprintf("%.1f", without.Cost),
			fmt.Sprintf("%.1f", with.ReappliedSavings))
	}
	return r, nil
}

// AblationPostProcess compares partitioning with Algorithm 1 enabled
// (4 parses) and disabled, measuring the discarded-savings magnitude and
// the final incremental cost.
func AblationPostProcess(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:      "ablation-postprocess",
		Title:   "Partition post-processing (Algorithm 1) on vs. off",
		Header:  cfg.headerLines(scale),
		Columns: []string{"instance", "discarded (4 parses)", "discarded (off)", "cost (4 parses)", "cost (off)"},
	}
	for inst := 0; inst < scale.Instances; inst++ {
		p, err := ablationInstance(scale, inst)
		if err != nil {
			return nil, err
		}
		dev := &da.Solver{CapacityVars: cfg.DACapacity}
		measure := func(parses int) (float64, float64, error) {
			part, err := partition.Partition(ctx, p, partition.Options{
				Capacity: cfg.DACapacity, Solver: dev, Runs: cfg.Runs,
				Sweeps: daSweeps(cfg, p), Seed: workload.ClassSeed("abl-pp", inst, parses, 0),
				PostProcessParses: parses,
			})
			if err != nil {
				return 0, 0, err
			}
			out, err := core.IncrementalOverSubProblems(ctx, p, part.SubProblems, core.Options{
				Device: dev, Runs: cfg.Runs, TotalSweeps: daSweeps(cfg, p),
				Seed: workload.ClassSeed("abl-pp-solve", inst, parses, 0),
			})
			if err != nil {
				return 0, 0, err
			}
			return part.DiscardedSavings, out.Cost, nil
		}
		discOn, costOn, err := measure(4)
		if err != nil {
			return nil, err
		}
		discOff, costOff, err := measure(-1)
		if err != nil {
			return nil, err
		}
		r.AddRow(p.Name,
			fmt.Sprintf("%.1f", discOn), fmt.Sprintf("%.1f", discOff),
			fmt.Sprintf("%.1f", costOn), fmt.Sprintf("%.1f", costOff))
	}
	return r, nil
}

// AblationLagrange sweeps the balance multiplier ω_A around the Theorem 4.5
// bound and reports the resulting bisection imbalance and cut weight on the
// instances' partitioning graphs.
func AblationLagrange(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:      "ablation-lagrange",
		Title:   "Balance multiplier ω_A below/at/above the Theorem 4.5 bound",
		Header:  cfg.headerLines(scale),
		Columns: []string{"instance", "ω_A scale", "imbalance (plans)", "cut weight"},
	}
	dev := &sa.Solver{}
	for inst := 0; inst < scale.Instances; inst++ {
		p, err := ablationInstance(scale, inst)
		if err != nil {
			return nil, err
		}
		g := partition.BuildGraph(p)
		for _, s := range []float64{0.01, 1, 10} {
			enc, err := encoding.EncodePartitionScaled(g.NodeWeights, g.Edges, s)
			if err != nil {
				return nil, err
			}
			res, err := dev.Solve(ctx, solver.Request{Model: enc.Model, Runs: cfg.Runs, Sweeps: 800, Seed: workload.ClassSeed("abl-lag", inst, int(s*100), 0)})
			if err != nil {
				return nil, err
			}
			best, ok := res.Best()
			if !ok {
				return nil, fmt.Errorf("ablation: device returned no samples")
			}
			part1, part2, err := enc.Decode(best.Assignment)
			if err != nil {
				return nil, err
			}
			in1 := make([]bool, g.NumNodes())
			for _, q := range part1 {
				in1[q] = true
			}
			r.AddRow(p.Name, fmt.Sprintf("%.2f·ω_A", s),
				fmt.Sprintf("%.0f", enc.Imbalance(in1)),
				fmt.Sprintf("%.1f", g.CutWeight(part1, part2)))
		}
	}
	r.Notes = append(r.Notes, "below the bound (0.01·ω_A) the annealer trades balance for cut weight; at and above the bound partitions stay balanced (Theorem 4.5)")
	return r, nil
}

// AblationDigitalAnnealer compares the full DA algorithm against its two
// ablations — dynamic offset disabled, and single-flip acceptance — on the
// encoded corpus, reporting mean best energies.
func AblationDigitalAnnealer(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:      "ablation-da",
		Title:   "Digital Annealer enhancements: parallel trial and dynamic offset",
		Header:  cfg.headerLines(scale),
		Columns: []string{"instance", "full DA", "no dynamic offset", "single flip"},
	}
	variants := []struct {
		name string
		dev  *da.Solver
	}{
		{"full DA", &da.Solver{CapacityVars: 1 << 20}},
		{"no dynamic offset", &da.Solver{CapacityVars: 1 << 20, DisableDynamicOffset: true}},
		{"single flip", &da.Solver{CapacityVars: 1 << 20, SingleFlip: true}},
	}
	for inst := 0; inst < scale.Instances; inst++ {
		// Smaller instances keep the unpartitioned QUBO tractable.
		in, err := workload.GenerateSweep(workload.SweepConfig{
			Queries: scale.QuerySet[0], PPQ: scale.StandardPPQ,
			Communities: 4, DensityLow: 0.05, DensityHigh: 1.0,
			Seed: workload.ClassSeed("abl-da", inst, 0, 0),
		})
		if err != nil {
			return nil, err
		}
		enc, err := encoding.EncodeMQO(in.Problem)
		if err != nil {
			return nil, err
		}
		row := []string{in.Problem.Name}
		for _, v := range variants {
			res, err := v.dev.Solve(ctx, solver.Request{
				Model: enc.Model, Runs: cfg.Runs, Sweeps: daSweeps(cfg, in.Problem), Seed: workload.ClassSeed("abl-da-run", inst, 0, 0),
			})
			if err != nil {
				return nil, err
			}
			best, ok := res.Best()
			if !ok {
				return nil, fmt.Errorf("ablation: device returned no samples")
			}
			row = append(row, fmt.Sprintf("%.1f", best.Energy))
		}
		r.AddRow(row...)
	}
	r.Notes = append(r.Notes, "values are best QUBO energies (lower is better) under a constant step budget")
	return r, nil
}
