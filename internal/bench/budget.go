package bench

import (
	"context"
	"fmt"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/workload"
)

// AblationBudget sweeps the Digital Annealer's step budget (in sweeps per
// variable) and reports the incremental pipeline's solution cost at each
// level — the quality-vs-effort curve behind the choice of a constant
// total iteration budget in the paper's comparisons. Diminishing returns
// past ~100 sweeps/variable justify the harness default.
func AblationBudget(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:      "ablation-budget",
		Title:   "Solution cost vs. annealing budget (DA incremental)",
		Header:  cfg.headerLines(scale),
		Columns: []string{"instance", "sweeps/var", "cost", "sweeps performed"},
	}
	levels := []int{10, 40, 100, 200}
	for inst := 0; inst < scale.Instances; inst++ {
		// A mid-sized instance keeps the 4-level sweep affordable.
		p, err := ablationInstance(scale, inst)
		if err != nil {
			return nil, err
		}
		for _, perVar := range levels {
			out, err := core.SolveIncremental(ctx, p, core.Options{
				Device:      &da.Solver{CapacityVars: cfg.DACapacity},
				Runs:        cfg.Runs,
				TotalSweeps: perVar * p.NumPlans(),
				Seed:        workload.ClassSeed("abl-budget", inst, perVar, 0),
			})
			if err != nil {
				return nil, err
			}
			r.AddRow(p.Name, fmt.Sprintf("%d", perVar),
				fmt.Sprintf("%.1f", out.Cost), fmt.Sprintf("%d", out.Sweeps))
		}
	}
	r.Notes = append(r.Notes, "costs should be non-increasing in the budget, flattening past ~100 sweeps/variable")
	return r, nil
}
