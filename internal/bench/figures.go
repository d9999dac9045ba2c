package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/embed"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solvecache"
	"incranneal/internal/workload"
)

// Fig1 reproduces the qubit-capacity figure: the physical-qubit requirement
// of the original (unpartitioned) Trummer–Koch method per query count at 10
// PPQ, with "exceeded" crosses against the D-Wave 2X (used by the original
// study) and the current-generation Advantage.
func Fig1(scale Scale) *Report {
	r := &Report{
		ID:      "fig1",
		Title:   "Qubit capacity requirements of the original quantum MQO method (10 PPQ)",
		Header:  []string{fmt.Sprintf("scale=%s (analytic figure: no solver runs, no seeds)", scale.Name)},
		Columns: []string{"queries", "logical vars", "2X qubits", "2X fits", "Advantage qubits", "Advantage fits"},
	}
	dw2x, adv := embed.DWave2X(), embed.Advantage()
	for q := 2; q <= scale.Fig1MaxQueries; q += 2 {
		a := embed.RequiredQubits(dw2x, q, 10)
		b := embed.RequiredQubits(adv, q, 10)
		r.AddRow(
			fmt.Sprintf("%d", q),
			fmt.Sprintf("%d", a.LogicalVariables),
			fmt.Sprintf("%d", a.PhysicalQubits), fits(a),
			fmt.Sprintf("%d", b.PhysicalQubits), fits(b),
		)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("D-Wave 2X capacity %d qubits; Advantage capacity %d qubits", dw2x.Qubits, adv.Qubits),
		"crosses (✗) correspond to the N/A crosses of Fig. 1")
	return r
}

func fits(req embed.Requirement) string {
	if req.Exceeded {
		return "✗"
	}
	return "✓"
}

// classStats aggregates normalised costs per algorithm over the instances
// of one problem class.
type classStats struct {
	min, max, sum float64
	n             int
	errs          int
}

func (cs *classStats) add(m Measurement) {
	if m.Err != nil {
		cs.errs++
		return
	}
	if cs.n == 0 || m.Normalised < cs.min {
		cs.min = m.Normalised
	}
	if cs.n == 0 || m.Normalised > cs.max {
		cs.max = m.Normalised
	}
	cs.sum += m.Normalised
	cs.n++
}

func (cs *classStats) mean() float64 {
	if cs.n == 0 {
		return math.NaN()
	}
	return cs.sum / float64(cs.n)
}

// runClass generates the instances of one problem class, runs the roster
// and returns per-algorithm stats keyed by algorithm name in roster order.
func runClass(ctx context.Context, algos []Algorithm, gen func(instance int) (*mqo.Problem, error), instances int, seed int64) (map[string]*classStats, error) {
	stats := make(map[string]*classStats, len(algos))
	for _, a := range algos {
		stats[a.Name] = &classStats{}
	}
	for inst := 0; inst < instances; inst++ {
		p, err := gen(inst)
		if err != nil {
			return nil, err
		}
		for _, m := range RunInstance(ctx, algos, p, seed+int64(inst)*104729) {
			stats[m.Algorithm].add(m)
		}
	}
	return stats, nil
}

// statCells renders min/mean/max for one algorithm with the figure's N/A
// cut-off.
func statCells(cs *classStats, cutoff float64) string {
	if cs.n == 0 {
		return "err"
	}
	mean := cs.mean()
	if cutoff > 0 && mean >= cutoff {
		return "N/A"
	}
	return fmt.Sprintf("%s [%s,%s]", fmtNorm(mean, cutoff), fmtNorm(cs.min, 0), fmtNorm(cs.max, 0))
}

// Fig3 reproduces the scalability-robustness figure: normalised solution
// costs for all eight approaches over the queries × PPQ grid, with four
// query communities of varying sizes and densities sampled from [0.05, 1].
func Fig3(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig3",
		Title:  fmt.Sprintf("Normalised costs, 4 varying communities, densities [0.05,1] (%s scale)", scale.Name),
		Header: cfg.headerLines(scale),
	}
	algos := Roster(cfg)
	r.Columns = append([]string{"queries", "PPQ"}, algoNames(algos)...)
	for _, ppq := range scale.PPQSet {
		for _, q := range scale.QuerySet {
			q, ppq := q, ppq
			roster := algos
			if q > scale.MaxQueriesHQA {
				roster = withoutAlgorithm(algos, "HQA")
			}
			stats, err := runClass(ctx, roster, func(inst int) (*mqo.Problem, error) {
				in, err := workload.GenerateSweep(workload.SweepConfig{
					Queries: q, PPQ: ppq, Communities: 4,
					DensityLow: 0.05, DensityHigh: 1.0,
					Seed: classSeed("fig3", q, ppq, inst),
				})
				if err != nil {
					return nil, err
				}
				return in.Problem, nil
			}, scale.Instances, classSeed("fig3run", q, ppq, 0))
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%d", q), fmt.Sprintf("%d", ppq)}
			for _, a := range algos {
				cs, ok := stats[a.Name]
				if !ok || (a.Name == "HQA" && q > scale.MaxQueriesHQA) {
					row = append(row, "—")
					continue
				}
				row = append(row, statCells(cs, 20))
			}
			r.AddRow(row...)
		}
	}
	r.Notes = append(r.Notes,
		"cells show mean [min,max] normalised cost over instances; N/A marks costs ≥ 20 as in the paper",
		fmt.Sprintf("HQA limited to ≤ %d queries (paper: 500, for budget reasons)", scale.MaxQueriesHQA))
	return r, nil
}

// Fig4 reproduces the community-structure figure: DA default vs. parallel
// vs. incremental over increasing community counts, equal and varying
// community sizes.
func Fig4(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig4",
		Title:  fmt.Sprintf("Normalised costs vs. number of communities, %d PPQ (%s scale)", scale.StandardPPQ, scale.Name),
		Header: cfg.headerLines(scale),
	}
	algos := ProcessingRoster(cfg)
	r.Columns = append([]string{"sizes", "communities", "queries"}, algoNames(algos)...)
	for _, equal := range []bool{false, true} {
		sizes := "varying"
		if equal {
			sizes = "equal"
		}
		for _, comm := range scale.CommunitySet {
			for _, q := range scale.QuerySet {
				stats, err := runClass(ctx, algos, func(inst int) (*mqo.Problem, error) {
					in, err := workload.GenerateSweep(workload.SweepConfig{
						Queries: q, PPQ: scale.StandardPPQ, Communities: comm,
						EqualCommunities: equal,
						DensityLow:       0.05, DensityHigh: 1.0,
						Seed: classSeed("fig4", q, comm*2+boolInt(equal), inst),
					})
					if err != nil {
						return nil, err
					}
					return in.Problem, nil
				}, scale.Instances, classSeed("fig4run", q, comm, 0))
				if err != nil {
					return nil, err
				}
				row := []string{sizes, fmt.Sprintf("%d", comm), fmt.Sprintf("%d", q)}
				for _, a := range algos {
					row = append(row, statCells(stats[a.Name], 5))
				}
				r.AddRow(row...)
			}
		}
	}
	r.Notes = append(r.Notes, "N/A marks normalised costs ≥ 5 as in the paper's Fig. 4")
	return r, nil
}

// Fig5 reproduces the density figure: DA default vs. incremental over
// density intervals of increasing width, four varying communities.
func Fig5(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig5",
		Title:  fmt.Sprintf("Normalised costs vs. community density interval, %d PPQ, 4 varying communities (%s scale)", scale.StandardPPQ, scale.Name),
		Header: cfg.headerLines(scale),
	}
	algos := []Algorithm{DADefault(cfg), DAIncremental(cfg)}
	r.Columns = append([]string{"densities", "queries"}, algoNames(algos)...)
	for _, high := range scale.DensityHighs {
		for _, q := range scale.QuerySet {
			stats, err := runClass(ctx, algos, func(inst int) (*mqo.Problem, error) {
				in, err := workload.GenerateSweep(workload.SweepConfig{
					Queries: q, PPQ: scale.StandardPPQ, Communities: 4,
					DensityLow: 0.05, DensityHigh: high,
					Seed: classSeed("fig5", q, int(high*100), inst),
				})
				if err != nil {
					return nil, err
				}
				return in.Problem, nil
			}, scale.Instances, classSeed("fig5run", q, int(high*100), 0))
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("[0.05,%.2f]", high), fmt.Sprintf("%d", q)}
			for _, a := range algos {
				row = append(row, statCells(stats[a.Name], 5))
			}
			r.AddRow(row...)
		}
	}
	r.Notes = append(r.Notes, "N/A marks normalised costs ≥ 5 as in the paper's Fig. 5")
	return r, nil
}

// Fig6 reproduces the conventional-benchmark figure: normalised costs on
// MQO scenarios extrapolated from TPC-H, LDBC BI and JOB.
func Fig6(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig6",
		Title:  fmt.Sprintf("Normalised costs on QO-benchmark scenarios, %d PPQ (%s scale)", scale.StandardPPQ, scale.Name),
		Header: cfg.headerLines(scale),
	}
	// The paper's Fig. 6 omits DA (Parallel) and SA (Default), whose
	// relative weakness is unchanged from Fig. 3.
	algos := []Algorithm{HC(cfg), Genetic(cfg), SAIncremental(cfg), HQAIncremental(cfg), DADefault(cfg), DAIncremental(cfg)}
	r.Columns = append([]string{"benchmark", "queries"}, algoNames(algos)...)
	for _, bm := range []string{"tpch", "ldbc", "job"} {
		cat := workload.Catalogues()[bm]
		for _, q := range scale.QuerySet {
			roster := algos
			if q > scale.MaxQueriesHQA {
				roster = withoutAlgorithm(algos, "HQA")
			}
			stats, err := runClass(ctx, roster, func(inst int) (*mqo.Problem, error) {
				in, err := workload.GenerateBench(workload.BenchConfig{
					Catalogue: cat, Queries: q, PPQ: scale.StandardPPQ,
					Seed: classSeed("fig6"+bm, q, 0, inst),
				})
				if err != nil {
					return nil, err
				}
				return in.Problem, nil
			}, scale.Instances, classSeed("fig6run"+bm, q, 0, 0))
			if err != nil {
				return nil, err
			}
			row := []string{bm, fmt.Sprintf("%d", q)}
			for _, a := range algos {
				cs, ok := stats[a.Name]
				if !ok || (a.Name == "HQA" && q > scale.MaxQueriesHQA) {
					row = append(row, "—")
					continue
				}
				row = append(row, statCells(cs, 20))
			}
			r.AddRow(row...)
		}
	}
	return r, nil
}

// Fig7 reproduces the runtime figure: wall-clock optimisation times of the
// annealing-based methods over increasing query counts and savings
// densities.
func Fig7(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig7",
		Title:  fmt.Sprintf("Optimisation times, %d PPQ (%s scale)", scale.StandardPPQ, scale.Name),
		Header: cfg.headerLines(scale),
	}
	algos := []Algorithm{
		SADefault(cfg), SAIncremental(cfg), HQAIncremental(cfg),
		DADefault(cfg), DAParallel(cfg), DAIncremental(cfg),
	}
	r.Columns = append([]string{"density", "queries"}, algoNames(algos)...)
	budget := cfg.TimeBudget
	if budget <= 0 {
		budget = 3 * time.Minute // the paper's 180 s cut-off
	}
	for _, d := range scale.RuntimeDensities {
		for _, q := range scale.QuerySet {
			p, err := runtimeInstance(q, scale.StandardPPQ, d)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%.1f", d), fmt.Sprintf("%d", q)}
			for i, a := range algos {
				if a.Name == "HQA" && q > scale.MaxQueriesHQA {
					row = append(row, "—")
					continue
				}
				start := time.Now()
				runCtx, cancel := context.WithTimeout(ctx, budget)
				_, err := a.Run(runCtx, p, classSeed("fig7run", q, int(d*100), i))
				cancel()
				elapsed := time.Since(start)
				switch {
				case err != nil:
					row = append(row, "err")
				case elapsed >= budget:
					row = append(row, "N/A")
				default:
					row = append(row, fmt.Sprintf("%.2fs", elapsed.Seconds()))
				}
			}
			r.AddRow(row...)
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf("N/A marks runs exceeding the %v budget (paper: 180 s)", budget))
	return r, nil
}

// PhaseReport breaks the DA processing strategies' wall-clock time down by
// pipeline phase (partitioning, encoding, annealing, decoding+merging) over
// increasing query counts. It is not a figure of the paper; it exists to
// attribute the runtime differences Fig. 7 reports to the phases causing
// them.
func PhaseReport(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:      "phases",
		Title:   fmt.Sprintf("Phase timings of the DA processing strategies, %d PPQ (%s scale)", scale.StandardPPQ, scale.Name),
		Header:  cfg.headerLines(scale),
		Columns: []string{"strategy", "queries", "total", "partition", "encode", "anneal", "anneal p99", "decode+merge", "dss", "deg", "cost", "cache"},
	}
	algos := ProcessingRoster(cfg)
	for _, q := range scale.QuerySet {
		p, err := runtimeInstance(q, scale.StandardPPQ, 0.3)
		if err != nil {
			return nil, err
		}
		for _, m := range RunInstance(ctx, algos, p, classSeed("phasesrun", q, 0, 0)) {
			if m.Err != nil {
				r.AddRow(m.Algorithm, fmt.Sprintf("%d", q), "err", "—", "—", "—", "—", "—", "—", "—", "—", "—")
				continue
			}
			r.AddRow(m.Algorithm, fmt.Sprintf("%d", q),
				fmtDur(m.Elapsed),
				fmtDur(m.Timings.Partition), fmtDur(m.Timings.Encode),
				fmtDur(m.Timings.Anneal), fmtQuantileMs(m.AnnealP99),
				fmtDur(m.Timings.Decode),
				fmtDur(m.Timings.DSS),
				fmt.Sprintf("%d", m.Degraded),
				fmt.Sprintf("%.0f", m.Cost), "—")
		}
		// Cached second run of the incremental strategy: same problem and
		// seed against a primed cross-solve cache, so the partition column
		// collapses and the cost stays bit-identical to the cold run above.
		cachedOpt := core.Options{
			Device: cfg.wrap(&da.Solver{CapacityVars: cfg.DACapacity}), Runs: cfg.Runs,
			TotalSweeps: daSweeps(cfg, p), Seed: classSeed("phasesrun", q, 0, 0) + int64(len(algos)-1)*7919,
			Parallelism: cfg.Parallelism, FailFast: cfg.FailFast,
			Cache: solvecache.New(0),
		}
		if _, err := core.SolveIncremental(ctx, p, cachedOpt); err != nil {
			return nil, err
		}
		cachedReg := obs.NewRegistry()
		cachedCtx := obs.NewContext(ctx, obs.NewSink(nil, cachedReg))
		start := time.Now()
		out, err := core.SolveIncremental(cachedCtx, p, cachedOpt)
		if err != nil {
			return nil, err
		}
		r.AddRow("DA (Incremental, cached)", fmt.Sprintf("%d", q),
			fmtDur(time.Since(start)),
			fmtDur(out.Timings.Partition), fmtDur(out.Timings.Encode),
			fmtDur(out.Timings.Anneal), fmtQuantileMs(cachedReg.Histogram("latency.anneal_ms").Snapshot().P99),
			fmtDur(out.Timings.Decode),
			fmtDur(out.Timings.DSS),
			fmt.Sprintf("%d", len(out.Degradations)),
			fmt.Sprintf("%.0f", out.Cost), cacheCell(out.Cache))
	}
	r.Notes = append(r.Notes,
		"phase columns sum each phase's spans; the partial problems of one wave solve concurrently, so phases may sum past the total",
		"the cached row re-solves the same instance with the same seed against a primed cross-solve cache: partition time collapses to the Refit check and the cost matches DA (Incremental) bit for bit")
	return r, nil
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtQuantileMs renders a latency quantile in milliseconds; zero (baseline
// without device calls, or an empty histogram) renders as a dash.
func fmtQuantileMs(ms float64) string {
	if ms == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2fms", ms)
}

// runtimeInstance builds the Fig. 7 instance: four varying communities
// whose densities all equal d.
func runtimeInstance(queries, ppq int, d float64) (*mqo.Problem, error) {
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: queries, PPQ: ppq, Communities: 4,
		DensityLow: d, DensityHigh: d,
		Seed: classSeed("fig7", queries, int(d*100), 0),
	})
	if err != nil {
		return nil, err
	}
	return in.Problem, nil
}

func algoNames(algos []Algorithm) []string {
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}

func withoutAlgorithm(algos []Algorithm, name string) []Algorithm {
	out := make([]Algorithm, 0, len(algos))
	for _, a := range algos {
		if a.Name != name {
			out = append(out, a)
		}
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// classSeed derives a stable seed for a problem class from its label and
// dimensions.
func classSeed(label string, a, b, inst int) int64 {
	h := int64(1469598103934665603)
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	h ^= int64(a)*1000003 + int64(b)*10007 + int64(inst)*97
	if h < 0 {
		h = -h
	}
	return h
}
