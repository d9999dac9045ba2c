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
		fmt.Sprintf("max clique variables: 2X %d, Advantage %d", dw2x.MaxCliqueVariables(), adv.MaxCliqueVariables()),
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

// classRows adds one row per corpus class of figure r.ID to r and returns
// it: the class's cells, then each algorithm's statCells over the scale's
// instances, or "—" for HQA, which sits out classes above MaxQueriesHQA.
func classRows(ctx context.Context, r *Report, scale Scale, algos []Algorithm, cutoff float64) (*Report, error) {
	for _, c := range scale.Classes() {
		if c.Figure != r.ID {
			continue
		}
		roster := algos
		if c.Queries > scale.MaxQueriesHQA {
			roster = withoutAlgorithm(algos, "HQA")
		}
		stats := make(map[string]*classStats, len(roster))
		for _, a := range roster {
			stats[a.Name] = &classStats{}
		}
		for inst := 0; inst < scale.Instances; inst++ {
			p, err := c.Generate(inst)
			if err != nil {
				return nil, err
			}
			for _, m := range RunInstance(ctx, roster, p, c.Seed+int64(inst)*104729) {
				stats[m.Algorithm].add(m)
			}
		}
		row := append([]string(nil), c.Cells...)
		for _, a := range algos {
			cs, ok := stats[a.Name]
			if !ok {
				row = append(row, "—")
				continue
			}
			row = append(row, statCells(cs, cutoff))
		}
		r.AddRow(row...)
	}
	return r, nil
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
	algos := Roster(cfg)
	r := &Report{
		ID:      "fig3",
		Title:   fmt.Sprintf("Normalised costs, 4 varying communities, densities [0.05,1] (%s scale)", scale.Name),
		Header:  cfg.headerLines(scale),
		Columns: append([]string{"queries", "PPQ"}, algoNames(algos)...),
		Notes: []string{
			"cells show mean [min,max] normalised cost over instances; N/A marks costs ≥ 20 as in the paper",
			fmt.Sprintf("HQA limited to ≤ %d queries (paper: 500, for budget reasons)", scale.MaxQueriesHQA),
		},
	}
	return classRows(ctx, r, scale, algos, 20)
}

// Fig4 reproduces the community-structure figure: DA default vs. parallel
// vs. incremental over increasing community counts, equal and varying
// community sizes.
func Fig4(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	algos := ProcessingRoster(cfg)
	r := &Report{
		ID:      "fig4",
		Title:   fmt.Sprintf("Normalised costs vs. number of communities, %d PPQ (%s scale)", scale.StandardPPQ, scale.Name),
		Header:  cfg.headerLines(scale),
		Columns: append([]string{"sizes", "communities", "queries"}, algoNames(algos)...),
		Notes:   []string{"N/A marks normalised costs ≥ 5 as in the paper's Fig. 4"},
	}
	return classRows(ctx, r, scale, algos, 5)
}

// Fig5 reproduces the density figure: DA default vs. incremental over
// density intervals of increasing width, four varying communities.
func Fig5(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	algos := []Algorithm{DADefault(cfg), DAIncremental(cfg)}
	r := &Report{
		ID:      "fig5",
		Title:   fmt.Sprintf("Normalised costs vs. community density interval, %d PPQ, 4 varying communities (%s scale)", scale.StandardPPQ, scale.Name),
		Header:  cfg.headerLines(scale),
		Columns: append([]string{"densities", "queries"}, algoNames(algos)...),
		Notes:   []string{"N/A marks normalised costs ≥ 5 as in the paper's Fig. 5"},
	}
	return classRows(ctx, r, scale, algos, 5)
}

// Fig6 reproduces the conventional-benchmark figure: normalised costs on
// MQO scenarios extrapolated from TPC-H, LDBC BI and JOB.
func Fig6(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	// The paper's Fig. 6 omits DA (Parallel) and SA (Default), whose
	// relative weakness is unchanged from Fig. 3.
	algos := []Algorithm{HC(cfg), Genetic(cfg), SAIncremental(cfg), HQAIncremental(cfg), DADefault(cfg), DAIncremental(cfg)}
	r := &Report{
		ID:      "fig6",
		Title:   fmt.Sprintf("Normalised costs on QO-benchmark scenarios, %d PPQ (%s scale)", scale.StandardPPQ, scale.Name),
		Header:  cfg.headerLines(scale),
		Columns: append([]string{"benchmark", "queries"}, algoNames(algos)...),
	}
	return classRows(ctx, r, scale, algos, 20)
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
				_, err := a.Run(runCtx, p, workload.ClassSeed("fig7run", q, int(d*100), i))
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
		for _, m := range RunInstance(ctx, algos, p, workload.ClassSeed("phasesrun", q, 0, 0)) {
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
			TotalSweeps: daSweeps(cfg, p), Seed: workload.ClassSeed("phasesrun", q, 0, 0) + int64(len(algos)-1)*7919,
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
		Seed: workload.ClassSeed("fig7", queries, int(d*100), 0),
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
