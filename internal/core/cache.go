package core

import (
	"sync/atomic"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solvecache"
)

// CacheOutcome describes one solve's cross-solve cache interaction (see
// Options.Cache).
type CacheOutcome struct {
	// StructureHit reports that the partitioning was reused from the
	// cache: no recursive bisection ran (partition.Refit only re-bisects
	// query sets the capacity no longer admits).
	StructureHit bool `json:"structureHit"`
	// SkeletonHits and SkeletonMisses count partial problems whose
	// encoding skeleton was rebound from the cache vs freshly prepared.
	SkeletonHits   int `json:"skeletonHits"`
	SkeletonMisses int `json:"skeletonMisses"`
	// WarmStart reports that annealing runs were seeded from the cached
	// incumbent; Drift is the relative weight drift against the cached
	// solve (meaningful on any structure hit).
	WarmStart bool    `json:"warmStart"`
	Drift     float64 `json:"drift"`
}

// Tier names the solve's cache reuse level for span attribution and log
// lines: "warm" (warm-started from the cached incumbent), "skeleton-hit"
// (structure hit with rebound encoding skeletons), "structure-hit"
// (partitioning reuse only) or "cold" (miss, or no cache configured — the
// nil receiver is valid).
func (c *CacheOutcome) Tier() string {
	switch {
	case c == nil:
		return "cold"
	case c.WarmStart:
		return "warm"
	case c.StructureHit && c.SkeletonHits > 0:
		return "skeleton-hit"
	case c.StructureHit:
		return "structure-hit"
	default:
		return "cold"
	}
}

// cacheRun threads one partitioned solve's cache interaction through the
// phases: the Lookup decision up front, skeleton checkout during
// preparation, warm assignments during the anneal, and the Commit after
// finalisation.
type cacheRun struct {
	cache *solvecache.Cache
	// key is the problem's structure key and shapes[i] partial problem
	// i's, each hashed once per solve.
	key    solvecache.Key
	shapes []solvecache.Key
	hit    *solvecache.Hit // nil on a structure miss
	out    *CacheOutcome
	// querySets is the partitioning to commit (the Refit result on a hit,
	// the fresh Partition result on a miss).
	querySets [][]int
	// warmSel[pl] is 1 when the cached incumbent selected parent plan pl
	// and warm starts are on; nil disables warm seeding entirely.
	warmSel []int8
	// skeleton checkout counters, atomic: preparation fans out over the
	// worker pool.
	skelHits, skelMisses int32
}

// newCacheRun consults opt.Cache for p and fixes the solve's reuse level.
// Warm starts require a hit with drift within (0, WarmStartDrift]: drift 0
// means the exact problem re-solved, which deliberately stays cold-seeded
// so identical solves stay bit-identical (TestCacheHitBitIdentical).
func newCacheRun(p *mqo.Problem, opt Options) *cacheRun {
	if opt.Cache == nil {
		return nil
	}
	cr := &cacheRun{cache: opt.Cache, key: solvecache.StructureKey(p), out: &CacheOutcome{}}
	cr.hit = opt.Cache.Lookup(cr.key, p)
	if cr.hit == nil {
		return cr
	}
	cr.out.StructureHit = true
	cr.out.Drift = cr.hit.Drift
	if opt.WarmStartDrift > 0 && cr.hit.Drift > 0 && cr.hit.Drift <= opt.WarmStartDrift {
		sel := make([]int8, p.NumPlans())
		any := false
		for _, pl := range cr.hit.Incumbent {
			if pl >= 0 && pl < len(sel) {
				sel[pl] = 1
				any = true
			}
		}
		if any {
			cr.warmSel = sel
			cr.out.WarmStart = true
			opt.Cache.RecordWarmStart()
		}
	}
	return cr
}

// demote abandons the hit after a failed Refit: the solve continues as a
// structure miss over a fresh partitioning.
func (cr *cacheRun) demote() {
	cr.hit = nil
	cr.warmSel = nil
	cr.out.StructureHit = false
	cr.out.WarmStart = false
	cr.out.Drift = 0
}

// warmFor projects the warm selection into sub's local plan numbering.
// Returns nil (cold) when warm starts are off for this solve.
func (cr *cacheRun) warmFor(sub *mqo.SubProblem) []int8 {
	if cr == nil || cr.warmSel == nil {
		return nil
	}
	w := make([]int8, len(sub.PlanGlobal))
	for lp, gp := range sub.PlanGlobal {
		w[lp] = cr.warmSel[gp]
	}
	return w
}

// startEncode sizes the shape keys for a solve of subs partial problems.
func (cr *cacheRun) startEncode(subs int) {
	if cr != nil {
		cr.shapes = make([]solvecache.Key, subs)
	}
}

// takeSkeleton hashes partial problem i, whose local problem is local, and
// checks a prepared skeleton for it out of the hit, nil when the solve
// must prepare fresh. Safe for concurrent use from the preparation
// fan-out, which calls it once per partial problem.
func (cr *cacheRun) takeSkeleton(i int, local *mqo.Problem) *encoding.PreparedMQO {
	if cr == nil {
		return nil
	}
	cr.shapes[i] = solvecache.StructureKey(local)
	if cr.hit == nil {
		return nil
	}
	pp := cr.hit.TakeSkeleton(cr.shapes[i], local)
	if pp != nil {
		atomic.AddInt32(&cr.skelHits, 1)
	} else {
		atomic.AddInt32(&cr.skelMisses, 1)
	}
	return pp
}

// commit records the finished solve in the cache and stamps the outcome.
func (cr *cacheRun) commit(p *mqo.Problem, out *Outcome, preps []*encoding.PreparedMQO, sink *obs.Sink) {
	if cr == nil {
		return
	}
	cr.out.SkeletonHits = int(atomic.LoadInt32(&cr.skelHits))
	cr.out.SkeletonMisses = int(atomic.LoadInt32(&cr.skelMisses))
	out.Cache = cr.out
	cr.cache.Commit(cr.key, p, cr.querySets, out.Solution.Selected, out.Cost, preps, cr.shapes)
	if sink.Enabled() {
		cr.cache.Publish(sink.Metrics())
	}
}
