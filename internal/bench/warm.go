package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/solvecache"
	"incranneal/internal/workload"
)

// DriftWeights returns a copy of p whose plan costs and saving values are
// multiplicatively jittered by up to ±rel (uniform), emulating the
// cost-model drift between epochs of a recurring workload. Zero-valued
// savings stay zero and no saving changes sign, so the drifted problem has
// p's exact structure fingerprint and skeleton zero pattern — it exercises
// the cache's reweight path, never the cold path.
func DriftWeights(p *mqo.Problem, rel float64, seed int64) (*mqo.Problem, error) {
	if rel < 0 {
		rel = 0
	}
	if rel > 0.9 {
		rel = 0.9 // keep costs positive and savings non-negative
	}
	rng := rand.New(rand.NewSource(seed))
	jitter := func(v float64) float64 { return v * (1 + rel*(2*rng.Float64()-1)) }
	planCosts := make([][]float64, p.NumQueries())
	for q := range planCosts {
		plans := p.Plans(q)
		row := make([]float64, len(plans))
		for i, pl := range plans {
			row[i] = jitter(p.Cost(pl))
		}
		planCosts[q] = row
	}
	savings := append([]mqo.Saving(nil), p.Savings()...)
	for i := range savings {
		if savings[i].Value != 0 {
			savings[i].Value = jitter(savings[i].Value)
		}
	}
	np, err := mqo.NewProblem(planCosts, savings)
	if err != nil {
		return nil, err
	}
	np.Name = p.Name + "+drift"
	return np, nil
}

// WarmStarts measures what the cross-solve cache buys on a recurring
// workload (the -fig warm figure): per instance size it compares
//
//   - cold — the first epoch, nothing cached;
//   - structure hit — the identical problem re-solved against a primed
//     cache: recursive partitioning is skipped (partition.Refit keeps the
//     cached query sets) and encoding skeletons are rebound in place, so
//     cost is bit-identical to cold while wall-clock drops;
//   - cold (drift) — an epoch whose weights drifted, solved without a
//     cache: the fair baseline for warm starts and the parity target;
//   - warm (drift) — the drifted epoch against a primed cache with warm
//     starts on: annealing runs seed from the previous incumbent.
//
// The parity column reports the smallest fraction of the sweep budget at
// which the mode's final cost already matches the drifted cold full-budget
// cost ("sweeps to parity"); each warm probe primes a fresh cache with a
// full base-problem solve first, so probes never warm-start off each other.
func WarmStarts(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	const (
		driftRel  = 0.05 // per-epoch weight jitter
		warmBound = 0.2  // core.Options.WarmStartDrift
	)
	r := &Report{
		ID:    "warm",
		Title: fmt.Sprintf("Cross-solve caching and warm starts on recurring workloads, %d PPQ (%s scale)", scale.StandardPPQ, scale.Name),
		Header: append(cfg.headerLines(scale),
			fmt.Sprintf("drifted epochs jitter weights ±%.0f%% (zero savings pinned); warm-start drift bound %.2f", driftRel*100, warmBound)),
		Columns: []string{"queries", "mode", "wall", "speedup", "cost", "partition", "cache", "parity"},
	}
	fracs := [][2]int{{1, 8}, {1, 4}, {1, 2}, {1, 1}}
	skipped := 0
	for _, q := range scale.QuerySet {
		p, err := runtimeInstance(q, scale.StandardPPQ, 0.3)
		if err != nil {
			return nil, err
		}
		if p.NumPlans() <= cfg.DACapacity {
			// The instance fits the device whole: no partitioning runs, so
			// the structure tier has nothing to reuse. The cache targets the
			// partitioned incremental path.
			skipped++
			continue
		}
		budget := daSweeps(cfg, p)
		seed := workload.ClassSeed("warmrun", q, 0, 0)
		solve := func(pp *mqo.Problem, cache *solvecache.Cache, drift float64, sweeps int, s int64) (*core.Outcome, time.Duration, error) {
			opt := core.Options{
				Device: cfg.wrap(&da.Solver{CapacityVars: cfg.DACapacity}), Runs: cfg.Runs,
				TotalSweeps: sweeps, Seed: s, Parallelism: cfg.Parallelism,
				FailFast: cfg.FailFast, Cache: cache, WarmStartDrift: drift,
			}
			start := time.Now()
			out, err := core.SolveIncremental(ctx, pp, opt)
			return out, time.Since(start), err
		}

		cold, coldWall, err := solve(p, nil, 0, budget, seed)
		if err != nil {
			return nil, err
		}
		cache := solvecache.New(0)
		if _, _, err := solve(p, cache, 0, budget, seed); err != nil {
			return nil, err
		}
		hit, hitWall, err := solve(p, cache, 0, budget, seed)
		if err != nil {
			return nil, err
		}

		dp, err := DriftWeights(p, driftRel, seed+1)
		if err != nil {
			return nil, err
		}
		coldDrift, coldDriftWall, err := solve(dp, nil, 0, budget, seed+2)
		if err != nil {
			return nil, err
		}

		// Parity probes: both modes solve the drifted problem against a
		// freshly primed cache per fraction — a structure hit on the SAME
		// cached partitioning — and differ only in the warm-start bound
		// (0 keeps the anneal cold-seeded). Holding the partitioning fixed
		// isolates the seeding effect; an uncached cold solve partitions the
		// drifted weights fresh and can land on a different decomposition
		// with a systematically different reachable cost.
		runProbes := func(bound float64) ([]*core.Outcome, []time.Duration, error) {
			outs := make([]*core.Outcome, len(fracs))
			walls := make([]time.Duration, len(fracs))
			for i, f := range fracs {
				c := solvecache.New(0)
				if _, _, err := solve(p, c, 0, budget, seed); err != nil {
					return nil, nil, err
				}
				out, wall, err := solve(dp, c, bound, budget*f[0]/f[1], seed+2)
				if err != nil {
					return nil, nil, err
				}
				outs[i], walls[i] = out, wall
			}
			return outs, walls, nil
		}
		coldOuts, _, err := runProbes(0)
		if err != nil {
			return nil, err
		}
		warmOuts, warmWalls, err := runProbes(warmBound)
		if err != nil {
			return nil, err
		}
		// Parity target: the cold-seeded full-budget cost on the shared
		// partitioning.
		target := coldOuts[len(fracs)-1].Cost + 1e-9
		parityOf := func(outs []*core.Outcome) string {
			for i, f := range fracs {
				if outs[i].Cost <= target {
					return fmt.Sprintf("%d/%d", f[0], f[1])
				}
			}
			return "—"
		}
		parityCold, parityWarm := parityOf(coldOuts), parityOf(warmOuts)
		warm, warmWall := warmOuts[len(fracs)-1], warmWalls[len(fracs)-1]

		qs := fmt.Sprintf("%d", q)
		r.AddRow(qs, "cold", fmtDur(coldWall), "1.00×",
			fmt.Sprintf("%.1f", cold.Cost), fmtDur(cold.Timings.Partition), "—", "—")
		r.AddRow(qs, "structure hit", fmtDur(hitWall),
			fmt.Sprintf("%.2f×", coldWall.Seconds()/hitWall.Seconds()),
			fmt.Sprintf("%.1f", hit.Cost), fmtDur(hit.Timings.Partition), cacheCell(hit.Cache), "—")
		r.AddRow(qs, "cold (drift)", fmtDur(coldDriftWall), "1.00×",
			fmt.Sprintf("%.1f", coldDrift.Cost), fmtDur(coldDrift.Timings.Partition), "—", parityCold)
		r.AddRow(qs, "warm (drift)", fmtDur(warmWall),
			fmt.Sprintf("%.2f×", coldDriftWall.Seconds()/warmWall.Seconds()),
			fmt.Sprintf("%.1f", warm.Cost), fmtDur(warm.Timings.Partition), cacheCell(warm.Cache), parityWarm)
	}
	r.Notes = append(r.Notes,
		"structure-hit cost is bit-identical to cold by construction (Refit keeps the partitioning, Rebind equals a fresh prepare, warm seeding stays off at drift 0) — any difference is a bug",
		"speedup rows compare against the cold solve of the same problem (base or drifted); the partition column shows the phase the structure hit removes",
		"parity = smallest fraction of the sweep budget whose final cost reaches the cold-seeded full-budget cost; cold and warm parity probes share one cached partitioning (fresh-primed per fraction), so parity isolates the warm-seeding effect")
	if skipped > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d instance size(s) skipped: they fit the device capacity whole, so no partitioning runs and the cache has nothing to reuse", skipped))
	}
	return r, nil
}

// cacheCell renders one solve's cache interaction for a report cell.
func cacheCell(c *core.CacheOutcome) string {
	if c == nil {
		return "—"
	}
	if !c.StructureHit {
		return "miss"
	}
	cell := fmt.Sprintf("hit, skel %d/%d", c.SkeletonHits, c.SkeletonHits+c.SkeletonMisses)
	if c.WarmStart {
		cell += fmt.Sprintf(", warm (drift %.3f)", c.Drift)
	}
	return cell
}
