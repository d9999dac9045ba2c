package bench

import (
	"context"
	"fmt"
	"sort"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/obs"
	"incranneal/internal/workload"
)

// convMaxPointsPerScope bounds the rows one scope (partial problem)
// contributes to the convergence table: the full trajectory lives in the
// JSONL trace; the table keeps the first and last improvement plus evenly
// spaced points in between, enough to see the convergence shape.
const convMaxPointsPerScope = 6

// Convergence runs the paper's method (DA, incremental) with dynamic search
// steering on and off on one partitioned instance and tabulates the
// incumbent-energy convergence trajectories the observability layer
// records: per partial problem the best-so-far QUBO energy over
// Monte-Carlo steps (merged across the annealing runs), and per merge the
// incumbent global plan cost. The DSS variants share the seed and sweep
// budget, so every difference between their rows is attributable to the
// re-applied savings steering later partial solves.
//
// Events are also forwarded to the sink carried by ctx (if any), so a
// -trace file records the raw trajectories alongside the rendered table.
func Convergence(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	q := scale.QuerySet[len(scale.QuerySet)-1]
	p, err := runtimeInstance(q, scale.StandardPPQ, 0.3)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "convergence",
		Title:   fmt.Sprintf("Incumbent-energy convergence, DA incremental, %d queries, %d PPQ, DSS on vs. off (%s scale)", q, scale.StandardPPQ, scale.Name),
		Header:  cfg.headerLines(scale),
		Columns: []string{"variant", "scope", "sweep", "incumbent"},
	}
	for _, variant := range []struct {
		name       string
		disableDSS bool
	}{{"dss-on", false}, {"dss-off", true}} {
		// Chain forwards events to an outer -trace sink; metrics are recorded
		// by the innermost sink only, so inherit the outer registry too.
		outer := obs.FromContext(ctx)
		collector := obs.NewCollector(outer.Metrics()).Chain(outer)
		runCtx := obs.NewContext(ctx, collector)
		out, err := core.SolveIncremental(runCtx, p, core.Options{
			Device:      &da.Solver{CapacityVars: cfg.DACapacity},
			Runs:        cfg.Runs,
			TotalSweeps: daSweeps(cfg, p),
			Seed:        workload.ClassSeed("convergence", q, scale.StandardPPQ, 0),
			Parallelism: cfg.Parallelism,
			DisableDSS:  variant.disableDSS,
		})
		if err != nil {
			return nil, err
		}
		for _, row := range convergenceRows(collector.Events()) {
			r.AddRow(variant.name, row.scope, fmt.Sprintf("%d", row.sweep), fmt.Sprintf("%.3f", row.energy))
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: final cost %.3f over %d partitions, reapplied savings %.3f, %d sweeps",
			variant.name, out.Cost, out.NumPartitions, out.ReappliedSavings, out.Sweeps))
	}
	r.Notes = append(r.Notes,
		"sub* scopes: best-so-far QUBO energy of the partial problem over Monte-Carlo steps, min across runs",
		"global scope: incumbent total plan cost after each partial solution merge (sweep column counts merges)",
		"full per-run trajectories are in the JSONL trace when -trace is set")
	return r, nil
}

// convRow is one rendered convergence point.
type convRow struct {
	scope  string
	sweep  int
	energy float64
}

// convergenceRows turns collected trace events into table rows. Device
// "run" events may arrive in any completion order (the worker pool races),
// so rows are rebuilt from the events' own fields and sorted — the table is
// deterministic for a deterministic pipeline even though the trace
// interleaving is not.
func convergenceRows(events []obs.Event) []convRow {
	// Merge every run's trajectory per label into one incumbent-over-sweeps
	// curve: sort the union of points by sweep and keep the running min.
	bySub := make(map[string][]obs.ConvPoint)
	var rows []convRow
	for _, e := range events {
		switch e.Name {
		case "run":
			if e.Device == "da" && e.Label != "bisect" {
				bySub[e.Label] = append(bySub[e.Label], e.Points...)
			}
		case "merge":
			rows = append(rows, convRow{scope: "global", sweep: e.N, energy: e.Value})
		}
	}
	labels := make([]string, 0, len(bySub))
	for l := range bySub {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		pts := bySub[l]
		sort.Slice(pts, func(a, b int) bool {
			if pts[a].Sweep != pts[b].Sweep {
				return pts[a].Sweep < pts[b].Sweep
			}
			return pts[a].Energy < pts[b].Energy
		})
		var curve []obs.ConvPoint
		for _, pt := range pts {
			if len(curve) == 0 || pt.Energy < curve[len(curve)-1].Energy {
				curve = append(curve, pt)
			}
		}
		for _, pt := range thinPoints(curve, convMaxPointsPerScope) {
			rows = append(rows, convRow{scope: l, sweep: pt.Sweep, energy: pt.Energy})
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].scope != rows[b].scope {
			// Global merge trajectory last: it summarises the sub curves.
			if rows[a].scope == "global" {
				return false
			}
			if rows[b].scope == "global" {
				return true
			}
			return rows[a].scope < rows[b].scope
		}
		return rows[a].sweep < rows[b].sweep
	})
	return rows
}

// thinPoints keeps at most n points of a curve: always the first and last,
// with the rest evenly spaced.
func thinPoints(pts []obs.ConvPoint, n int) []obs.ConvPoint {
	if len(pts) <= n || n < 2 {
		return pts
	}
	out := make([]obs.ConvPoint, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*(len(pts)-1)/(n-1)])
	}
	return out
}
