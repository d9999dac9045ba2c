package solvecache

import (
	"sync"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
)

// DefaultMaxEntries bounds the cache when New is given no explicit limit.
const DefaultMaxEntries = 64

// Stats are the cache's lifetime counters. All values are totals since
// construction; Publish mirrors them into an obs.Registry as gauges.
type Stats struct {
	// StructureHits / StructureMisses count Lookup outcomes.
	StructureHits, StructureMisses uint64
	// SkeletonHits / SkeletonMisses count TakeSkeleton outcomes: a hit
	// rebinds a pooled encoding skeleton, a miss falls back to a fresh
	// PrepareMQO.
	SkeletonHits, SkeletonMisses uint64
	// WarmStarts counts solves that seeded annealing runs from a cached
	// incumbent.
	WarmStarts uint64
	// Evictions counts entries dropped to keep the cache within bound.
	Evictions uint64
	// DeltaMigrations counts MigrateDelta calls that found and rewrote an
	// entry.
	DeltaMigrations uint64
}

// entry is the cached state of one problem structure. The cache lock only
// guards the entries map and LRU bookkeeping; the entry's own lock guards
// its content, so concurrent solves of different structures never contend.
type entry struct {
	mu sync.Mutex
	// costs and savings snapshot the weights of the last committed solve;
	// Lookup computes drift against them.
	costs, savings []float64
	// querySets is the committed partitioning: parent query indices per
	// capacity-conforming partial problem.
	querySets [][]int
	// incumbent is the last solve's plan selection per query
	// (mqo.Unassigned where a delta added a query no solve has covered
	// yet) and incumbentCost its cost at commit time.
	incumbent     []int
	incumbentCost float64
	// skeletons pools prepared encoding skeletons by sub-problem shape.
	// Multiple sub-problems of one solve can share a shape, hence a slice
	// per key. TakeSkeleton checks a skeleton out (exactly one owner);
	// Commit checks the solve's skeletons back in.
	skeletons map[Key][]*encoding.PreparedMQO

	lastUsed uint64 // cache-lock domain: LRU clock tick of the last touch
}

// Cache is the process-wide cross-solve cache. One handle is shared by
// every solve that should benefit from recurrence — a facade Session chain,
// the whole serve fleet — and all methods are safe for concurrent use. Its
// methods take the problem's StructureKey from the caller, which computes
// it once per solve: a key hashes the whole savings list.
type Cache struct {
	mu      sync.Mutex
	max     int
	clock   uint64
	entries map[Key]*entry
	stats   Stats
}

// New returns a cache bounded to maxEntries problem structures
// (DefaultMaxEntries when <= 0). Least-recently-used entries are evicted
// past the bound.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{max: maxEntries, entries: make(map[Key]*entry)}
}

// Hit is the cached state matching one Lookup. QuerySets and Incumbent are
// deep copies owned by the caller; TakeSkeleton goes back to the shared
// entry.
type Hit struct {
	// QuerySets is the cached partitioning, ready for partition.Refit.
	QuerySets [][]int
	// Incumbent holds the previous solve's selected plan per query
	// (mqo.Unassigned for queries no committed solve covered).
	Incumbent []int
	// IncumbentCost is the incumbent's cost at commit time, under the
	// weights of that solve.
	IncumbentCost float64
	// Drift is the relative weight distance between the looked-up problem
	// and the cached solve's weights (see WeightDrift). 0 means the exact
	// same problem.
	Drift float64

	c *Cache
	e *entry
}

// Lookup returns the cached state for p, whose StructureKey is k, or nil
// on a miss. The returned hit's drift is computed against the weights of
// the last committed solve of that structure.
func (c *Cache) Lookup(k Key, p *mqo.Problem) *Hit {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		c.stats.StructureMisses++
		c.mu.Unlock()
		return nil
	}
	c.clock++
	e.lastUsed = c.clock
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.costs) != p.NumPlans() || len(e.savings) != p.NumSavings() {
		// A structure-key collision (or an entry mid-migration): treat as a
		// miss rather than feed a foreign partitioning to Refit.
		c.mu.Lock()
		c.stats.StructureMisses++
		c.mu.Unlock()
		return nil
	}
	h := &Hit{
		QuerySets:     make([][]int, len(e.querySets)),
		Incumbent:     append([]int(nil), e.incumbent...),
		IncumbentCost: e.incumbentCost,
		Drift:         WeightDrift(p, e.costs, e.savings),
		c:             c,
		e:             e,
	}
	for i, qs := range e.querySets {
		h.QuerySets[i] = append([]int(nil), qs...)
	}
	c.mu.Lock()
	c.stats.StructureHits++
	c.mu.Unlock()
	return h
}

// TakeSkeleton checks a pooled encoding skeleton matching local's shape,
// whose StructureKey is k, out of the hit's entry and rebinds it to local's
// weights. It returns nil when the pool holds none — or when the pooled
// skeleton's shape does not actually match (a fingerprint collision loses a
// skeleton, never correctness). A returned skeleton has exactly one owner
// until the next Commit checks it back in.
func (h *Hit) TakeSkeleton(k Key, local *mqo.Problem) *encoding.PreparedMQO {
	if h == nil {
		return nil
	}
	h.e.mu.Lock()
	var pp *encoding.PreparedMQO
	if pool := h.e.skeletons[k]; len(pool) > 0 {
		pp = pool[len(pool)-1]
		h.e.skeletons[k] = pool[:len(pool)-1]
	}
	h.e.mu.Unlock()
	if pp != nil && !pp.Rebind(local) {
		pp = nil
	}
	h.c.mu.Lock()
	if pp != nil {
		h.c.stats.SkeletonHits++
	} else {
		h.c.stats.SkeletonMisses++
	}
	h.c.mu.Unlock()
	return pp
}

// Commit records a completed solve of p, whose StructureKey is k: the
// capacity-conforming query sets, the final incumbent and its cost, the
// weight snapshot the next Lookup computes drift against, and the solve's
// prepared skeletons for reuse, skeletons[i] under shapes[i], the
// StructureKey of its problem. It creates or refreshes the entry for p's
// structure, evicting the least-recently-used entry when the cache is over
// bound.
func (c *Cache) Commit(k Key, p *mqo.Problem, querySets [][]int, incumbent []int, cost float64, skeletons []*encoding.PreparedMQO, shapes []Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &entry{}
		c.entries[k] = e
		for len(c.entries) > c.max {
			c.evictLocked(k)
		}
	}
	c.clock++
	e.lastUsed = c.clock
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.costs = e.costs[:0]
	for pl := 0; pl < p.NumPlans(); pl++ {
		e.costs = append(e.costs, p.Cost(pl))
	}
	e.savings = e.savings[:0]
	for _, s := range p.Savings() {
		e.savings = append(e.savings, s.Value)
	}
	e.querySets = make([][]int, len(querySets))
	for i, qs := range querySets {
		e.querySets[i] = append([]int(nil), qs...)
	}
	e.incumbent = append(e.incumbent[:0], incumbent...)
	e.incumbentCost = cost
	// Check the solve's skeletons back in wholesale: the previous pool is
	// dropped (checked-out skeletons were rebound into this solve and come
	// back through this slice), so the pool never grows past one solve's
	// worth per structure.
	e.skeletons = make(map[Key][]*encoding.PreparedMQO, len(skeletons))
	for i, pp := range skeletons {
		if pp != nil {
			e.skeletons[shapes[i]] = append(e.skeletons[shapes[i]], pp)
		}
	}
}

// evictLocked drops the least-recently-used entry other than keep. Caller
// holds c.mu.
func (c *Cache) evictLocked(keep Key) {
	var victim Key
	var victimAge uint64
	found := false
	for k, e := range c.entries {
		if k == keep {
			continue
		}
		if !found || e.lastUsed < victimAge {
			victim, victimAge, found = k, e.lastUsed, true
		}
	}
	if !found {
		return
	}
	delete(c.entries, victim)
	c.stats.Evictions++
}

// Invalidate drops the entry for the structure whose key is k, if any. The
// solve layer calls it when a cached partitioning fails to refit — the
// entry is corrupt or describes a different problem (collision) and must
// not be offered again.
func (c *Cache) Invalidate(k Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.entries[k]; ok {
		delete(c.entries, k)
		c.stats.Evictions++
	}
	c.mu.Unlock()
}

// RecordWarmStart counts one warm-started solve.
func (c *Cache) RecordWarmStart() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.WarmStarts++
	c.mu.Unlock()
}

// Stats returns a snapshot of the lifetime counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached problem structures.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Publish mirrors the counters into reg as "cache.*" gauges (totals, so
// republishing after every solve is idempotent). A nil registry or cache is
// a no-op.
func (c *Cache) Publish(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	s := c.Stats()
	reg.Gauge("cache.structure.hits").Set(float64(s.StructureHits))
	reg.Gauge("cache.structure.misses").Set(float64(s.StructureMisses))
	reg.Gauge("cache.skeleton.hits").Set(float64(s.SkeletonHits))
	reg.Gauge("cache.skeleton.misses").Set(float64(s.SkeletonMisses))
	reg.Gauge("cache.warm_starts").Set(float64(s.WarmStarts))
	reg.Gauge("cache.evictions").Set(float64(s.Evictions))
	reg.Gauge("cache.entries").Set(float64(c.Len()))
}
