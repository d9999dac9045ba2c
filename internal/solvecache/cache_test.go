package solvecache

import (
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/workload"
)

// prob builds a problem or fails the test.
func prob(t *testing.T, costs [][]float64, savings []mqo.Saving) *mqo.Problem {
	t.Helper()
	p, err := mqo.NewProblem(costs, savings)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func twoQuery(t *testing.T, c00, c01, c10, c11, sv float64) *mqo.Problem {
	return prob(t, [][]float64{{c00, c01}, {c10, c11}}, []mqo.Saving{{P1: 0, P2: 2, Value: sv}})
}

// commit is Cache.Commit with every key computed from its problem.
func commit(c *Cache, p *mqo.Problem, querySets [][]int, incumbent []int, cost float64, skeletons []*encoding.PreparedMQO) {
	shapes := make([]Key, len(skeletons))
	for i, pp := range skeletons {
		if pp != nil {
			shapes[i] = StructureKey(pp.Problem)
		}
	}
	c.Commit(StructureKey(p), p, querySets, incumbent, cost, skeletons, shapes)
}

// TestStructureKeyPinned pins two digests recorded before keys were hashed
// through a block buffer: the paper's example, and a generated instance
// whose 2,445 savings fill the buffer several times over.
func TestStructureKeyPinned(t *testing.T) {
	in, err := workload.GenerateSweep(workload.SweepConfig{Queries: 32, PPQ: 6, Communities: 4, DensityLow: 0.05, DensityHigh: 0.8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *mqo.Problem
		want string
	}{
		{"paper example", mqo.PaperExample(), "1aa324d596527a7c89dcd3357db41e3d54bf7769b6fbcb48e233cdda169acbed"},
		{"32x6 sweep", in.Problem, "0d769d3df130022d209fdf1cd70cdc039b1f154aaf7c421cbe1de0a206c1755c"},
	} {
		k := StructureKey(c.p)
		if got := hex.EncodeToString(k[:]); got != c.want {
			t.Errorf("%s: StructureKey = %s, want %s", c.name, got, c.want)
		}
	}
}
func TestStructureKeyShapeOnly(t *testing.T) {
	a := twoQuery(t, 3, 5, 2, 4, 1.5)
	b := twoQuery(t, 30, 50, 20, 40, 9.25) // same shape, different weights
	if StructureKey(a) != StructureKey(b) {
		t.Fatal("weight change altered the structure key")
	}
	if StructureKey(a) != StructureKey(a) {
		t.Fatal("key is not deterministic")
	}
	// Value 0 vs non-zero is a weight difference, not a structural one.
	z := twoQuery(t, 3, 5, 2, 4, 0)
	if StructureKey(a) != StructureKey(z) {
		t.Fatal("saving value zeroing altered the structure key")
	}
}

func TestStructureKeyStructureSensitive(t *testing.T) {
	base := twoQuery(t, 3, 5, 2, 4, 1.5)
	mutants := []*mqo.Problem{
		prob(t, [][]float64{{3, 5}, {2, 4}, {1}}, []mqo.Saving{{P1: 0, P2: 2, Value: 1.5}}),                        // extra query
		prob(t, [][]float64{{3, 5, 6}, {2, 4}}, []mqo.Saving{{P1: 0, P2: 3, Value: 1.5}}),                          // extra plan
		prob(t, [][]float64{{3, 5}, {2, 4}}, []mqo.Saving{{P1: 1, P2: 3, Value: 1.5}}),                             // rewired saving
		prob(t, [][]float64{{3, 5}, {2, 4}}, nil),                                                                  // dropped saving
		prob(t, [][]float64{{3, 5}, {2, 4}}, []mqo.Saving{{P1: 0, P2: 2, Value: 1.5}, {P1: 1, P2: 2, Value: 0.1}}), // extra saving
		prob(t, [][]float64{{3}, {5, 2, 4}}, []mqo.Saving{{P1: 0, P2: 1, Value: 1.5}}),                             // shifted plan split
	}
	bk := StructureKey(base)
	for i, m := range mutants {
		if StructureKey(m) == bk {
			t.Errorf("mutant %d: structural change did not alter the key", i)
		}
	}
}

func TestWeightDrift(t *testing.T) {
	p := twoQuery(t, 3, 5, 2, 4, 1.5)
	snapCosts := []float64{3, 5, 2, 4}
	snapSavings := []float64{1.5}
	if d := WeightDrift(p, snapCosts, snapSavings); d != 0 {
		t.Fatalf("identical weights: drift = %v, want 0", d)
	}
	// Every weight +5% exactly → relative L1 drift 0.05.
	q := twoQuery(t, 3*1.05, 5*1.05, 2*1.05, 4*1.05, 1.5*1.05)
	if d := WeightDrift(q, snapCosts, snapSavings); math.Abs(d-0.05) > 1e-12 {
		t.Fatalf("uniform +5%%: drift = %v, want 0.05", d)
	}
	// Zero-mass snapshot with non-zero current weights: +Inf, never NaN.
	if d := WeightDrift(p, []float64{0, 0, 0, 0}, []float64{0}); !math.IsInf(d, 1) {
		t.Fatalf("zero snapshot: drift = %v, want +Inf", d)
	}
}

func TestCommitLookupRoundTrip(t *testing.T) {
	c := New(0)
	p := twoQuery(t, 3, 5, 2, 4, 1.5)
	if c.Lookup(StructureKey(p), p) != nil {
		t.Fatal("lookup on an empty cache hit")
	}
	sets := [][]int{{0, 1}}
	inc := []int{0, 3}
	commit(c, p, sets, inc, 6.5, nil)
	h := c.Lookup(StructureKey(p), p)
	if h == nil {
		t.Fatal("lookup after commit missed")
	}
	if len(h.QuerySets) != 1 || len(h.QuerySets[0]) != 2 || h.QuerySets[0][0] != 0 || h.QuerySets[0][1] != 1 {
		t.Fatalf("query sets round-tripped as %v", h.QuerySets)
	}
	if len(h.Incumbent) != 2 || h.Incumbent[0] != 0 || h.Incumbent[1] != 3 {
		t.Fatalf("incumbent round-tripped as %v", h.Incumbent)
	}
	if h.IncumbentCost != 6.5 {
		t.Fatalf("incumbent cost = %v, want 6.5", h.IncumbentCost)
	}
	if h.Drift != 0 {
		t.Fatalf("same-problem drift = %v, want 0", h.Drift)
	}
	// The hit owns deep copies: mutating them must not poison the entry.
	h.QuerySets[0][0] = 99
	h.Incumbent[0] = 99
	h2 := c.Lookup(StructureKey(p), p)
	if h2.QuerySets[0][0] != 0 || h2.Incumbent[0] != 0 {
		t.Fatal("hit copies alias the cached entry")
	}
	// Drift against the committed snapshot for a reweighted recurrence.
	q := twoQuery(t, 3*1.05, 5*1.05, 2*1.05, 4*1.05, 1.5*1.05)
	hd := c.Lookup(StructureKey(q), q)
	if hd == nil {
		t.Fatal("reweighted recurrence missed")
	}
	if math.Abs(hd.Drift-0.05) > 1e-12 {
		t.Fatalf("reweighted drift = %v, want 0.05", hd.Drift)
	}
	s := c.Stats()
	if s.StructureHits != 3 || s.StructureMisses != 1 {
		t.Fatalf("stats = %+v, want 3 hits / 1 miss", s)
	}
}

// TestLookupCollisionDefense plants a foreign entry under a problem's key —
// the in-process equivalent of a sha256 collision — and checks Lookup
// degrades to a miss instead of returning a partitioning for the wrong
// problem.
func TestLookupCollisionDefense(t *testing.T) {
	c := New(0)
	a := twoQuery(t, 3, 5, 2, 4, 1.5)
	commit(c, a, [][]int{{0, 1}}, []int{0, 3}, 6.5, nil)
	b := prob(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7}}, nil) // different plan/saving counts
	c.mu.Lock()
	c.entries[StructureKey(b)] = c.entries[StructureKey(a)]
	c.mu.Unlock()
	if h := c.Lookup(StructureKey(b), b); h != nil {
		t.Fatalf("collision lookup returned a foreign hit: %+v", h)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	ps := []*mqo.Problem{
		prob(t, [][]float64{{1}}, nil),
		prob(t, [][]float64{{1}, {2}}, nil),
		prob(t, [][]float64{{1}, {2}, {3}}, nil),
	}
	commit(c, ps[0], [][]int{{0}}, []int{0}, 1, nil)
	commit(c, ps[1], [][]int{{0, 1}}, []int{0, 1}, 3, nil)
	// Touch ps[0] so ps[1] is the LRU victim when ps[2] lands.
	if c.Lookup(StructureKey(ps[0]), ps[0]) == nil {
		t.Fatal("ps[0] missing before eviction")
	}
	commit(c, ps[2], [][]int{{0, 1, 2}}, []int{0, 1, 2}, 6, nil)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Lookup(StructureKey(ps[1]), ps[1]) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.Lookup(StructureKey(ps[0]), ps[0]) == nil || c.Lookup(StructureKey(ps[2]), ps[2]) == nil {
		t.Fatal("recently used entries were evicted")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(0)
	p := twoQuery(t, 3, 5, 2, 4, 1.5)
	commit(c, p, [][]int{{0, 1}}, []int{0, 3}, 6.5, nil)
	c.Invalidate(StructureKey(p))
	if c.Lookup(StructureKey(p), p) != nil {
		t.Fatal("invalidated entry still hits")
	}
	c.Invalidate(StructureKey(p)) // idempotent on a missing entry
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestTakeSkeletonPool(t *testing.T) {
	c := New(0)
	p := twoQuery(t, 3, 5, 2, 4, 1.5)
	pp, err := encoding.PrepareMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	commit(c, p, [][]int{{0, 1}}, []int{0, 3}, 6.5, []*encoding.PreparedMQO{pp})
	h := c.Lookup(StructureKey(p), p)
	if h == nil {
		t.Fatal("lookup missed")
	}
	// Same shape, new weights: checkout rebinds in place.
	q := twoQuery(t, 4, 6, 3, 5, 2.5)
	got := h.TakeSkeleton(StructureKey(q), q)
	if got == nil {
		t.Fatal("pooled skeleton not returned")
	}
	if got.Problem != q {
		t.Fatal("returned skeleton not rebound to the local problem")
	}
	// Exactly one owner: a second checkout of the same shape misses.
	if h.TakeSkeleton(StructureKey(q), q) != nil {
		t.Fatal("skeleton checked out twice")
	}
	// Commit checks it back in for the next solve.
	commit(c, p, [][]int{{0, 1}}, []int{0, 3}, 6.5, []*encoding.PreparedMQO{got})
	h2 := c.Lookup(StructureKey(p), p)
	if h2.TakeSkeleton(StructureKey(p), p) == nil {
		t.Fatal("recommitted skeleton not available")
	}
	s := c.Stats()
	if s.SkeletonHits != 2 || s.SkeletonMisses != 1 {
		t.Fatalf("skeleton stats = %+v, want 2 hits / 1 miss", s)
	}
}

// TestTakeSkeletonShapeMismatch pools a skeleton under a foreign shape key
// (collision stand-in); Rebind's validation must turn the checkout into a
// miss rather than hand back a wrong-shape skeleton.
func TestTakeSkeletonShapeMismatch(t *testing.T) {
	c := New(0)
	p := twoQuery(t, 3, 5, 2, 4, 1.5)
	pp, err := encoding.PrepareMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	commit(c, p, [][]int{{0, 1}}, []int{0, 3}, 6.5, []*encoding.PreparedMQO{pp})
	other := prob(t, [][]float64{{1, 2, 3}, {4, 5}}, nil)
	c.mu.Lock()
	e := c.entries[StructureKey(p)]
	c.mu.Unlock()
	e.mu.Lock()
	e.skeletons[StructureKey(other)] = e.skeletons[StructureKey(p)]
	e.mu.Unlock()
	h := c.Lookup(StructureKey(p), p)
	if got := h.TakeSkeleton(StructureKey(other), other); got != nil {
		t.Fatal("shape-mismatched skeleton survived checkout")
	}
	if s := c.Stats(); s.SkeletonMisses != 1 {
		t.Fatalf("skeleton misses = %d, want 1", s.SkeletonMisses)
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	p := prob(t, [][]float64{{1}}, nil)
	if c.Lookup(StructureKey(p), p) != nil {
		t.Fatal("nil cache lookup hit")
	}
	commit(c, p, nil, nil, 0, nil)
	c.Invalidate(StructureKey(p))
	c.RecordWarmStart()
	c.Publish(obs.NewRegistry())
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache reported state")
	}
	var h *Hit
	if h.TakeSkeleton(StructureKey(p), p) != nil {
		t.Fatal("nil hit returned a skeleton")
	}
}

func TestPublishGauges(t *testing.T) {
	c := New(0)
	p := twoQuery(t, 3, 5, 2, 4, 1.5)
	c.Lookup(StructureKey(p), p) // miss
	commit(c, p, [][]int{{0, 1}}, []int{0, 3}, 6.5, nil)
	c.Lookup(StructureKey(p), p) // hit
	c.RecordWarmStart()
	reg := obs.NewRegistry()
	c.Publish(reg)
	want := map[string]float64{
		"cache.structure.hits":   1,
		"cache.structure.misses": 1,
		"cache.skeleton.hits":    0,
		"cache.skeleton.misses":  0,
		"cache.warm_starts":      1,
		"cache.evictions":        0,
		"cache.entries":          1,
	}
	for name, v := range want {
		if got := reg.Gauge(name).Value(); got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestMigrateDelta(t *testing.T) {
	// Three queries, two plans each; savings chain 0-1 and 1-2.
	p := prob(t, [][]float64{{3, 5}, {2, 4}, {6, 1}},
		[]mqo.Saving{{P1: 0, P2: 2, Value: 1.5}, {P1: 3, P2: 4, Value: 2}})
	c := New(0)
	commit(c, p, [][]int{{0, 1}, {2}}, []int{0, 3, 5}, 9, nil)

	// Remove query 0, add a query tied to old query 2 by saving mass.
	d := mqo.Delta{
		RemoveQueries: []int{0},
		AddQueries: []mqo.AddedQuery{{
			PlanCosts: []float64{7, 8},
			Savings:   []mqo.Saving{{P1: 0, P2: 4, Value: 3}}, // local plan 0 ↔ old plan 4 (query 2)
		}},
	}
	np, dm, err := d.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	c.MigrateDelta(p, np, dm, 100)

	if c.Lookup(StructureKey(p), p) != nil {
		t.Fatal("old structure still cached after migration")
	}
	h := c.Lookup(StructureKey(np), np)
	if h == nil {
		t.Fatal("migrated structure missed")
	}
	// Set {0,1} lost query 0 → {old 1} = new 0; set {old 2} = new 1 gains the
	// added query (new 2) by saving affinity.
	if len(h.QuerySets) != 2 {
		t.Fatalf("query sets = %v, want 2 sets", h.QuerySets)
	}
	if len(h.QuerySets[0]) != 1 || h.QuerySets[0][0] != 0 {
		t.Fatalf("surviving set = %v, want [0]", h.QuerySets[0])
	}
	if len(h.QuerySets[1]) != 2 || h.QuerySets[1][0] != 1 || h.QuerySets[1][1] != 2 {
		t.Fatalf("affinity set = %v, want [1 2]", h.QuerySets[1])
	}
	// Incumbent: old query 1's plan 3 renumbers to 1, old query 2's plan 5
	// renumbers to 3; the added query starts unassigned.
	if len(h.Incumbent) != 3 || h.Incumbent[0] != 1 || h.Incumbent[1] != 3 || h.Incumbent[2] != mqo.Unassigned {
		t.Fatalf("incumbent = %v, want [1 3 %d]", h.Incumbent, mqo.Unassigned)
	}
	// Surviving weights carried over unchanged → drift 0 on lookup of np.
	if h.Drift != 0 {
		t.Fatalf("post-migration drift = %v, want 0", h.Drift)
	}
	if s := c.Stats(); s.DeltaMigrations != 1 {
		t.Fatalf("delta migrations = %d, want 1", s.DeltaMigrations)
	}
}

func TestMigrateDeltaCapacityOverflow(t *testing.T) {
	// Both existing queries sit in one set of weight 4 (two plans each).
	p := prob(t, [][]float64{{3, 5}, {2, 4}},
		[]mqo.Saving{{P1: 0, P2: 2, Value: 1.5}})
	c := New(0)
	commit(c, p, [][]int{{0, 1}}, []int{0, 3}, 9, nil)
	d := mqo.Delta{AddQueries: []mqo.AddedQuery{{
		PlanCosts: []float64{7, 8, 9},
		Savings:   []mqo.Saving{{P1: 0, P2: 0, Value: 3}},
	}}}
	np, dm, err := d.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 5: the affinity set (weight 4) cannot take 3 more plans, and
	// there is no fitting alternative — the query still joins its best
	// affinity set, leaving Refit to re-bisect exactly that set.
	c.MigrateDelta(p, np, dm, 5)
	h := c.Lookup(StructureKey(np), np)
	if h == nil {
		t.Fatal("migrated structure missed")
	}
	if len(h.QuerySets) != 1 || len(h.QuerySets[0]) != 3 {
		t.Fatalf("query sets = %v, want one merged set", h.QuerySets)
	}
}

func TestMigrateDeltaNoAffinitySingleton(t *testing.T) {
	p := prob(t, [][]float64{{3, 5}}, nil)
	c := New(0)
	commit(c, p, [][]int{{0}}, []int{0}, 3, nil)
	d := mqo.Delta{AddQueries: []mqo.AddedQuery{{PlanCosts: []float64{1, 2}}}}
	np, dm, err := d.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	c.MigrateDelta(p, np, dm, 100)
	h := c.Lookup(StructureKey(np), np)
	if h == nil {
		t.Fatal("migrated structure missed")
	}
	if len(h.QuerySets) != 2 || len(h.QuerySets[1]) != 1 || h.QuerySets[1][0] != 1 {
		t.Fatalf("query sets = %v, want added query in its own set", h.QuerySets)
	}
}

func TestMigrateDeltaUncachedNoOp(t *testing.T) {
	c := New(0)
	p := prob(t, [][]float64{{3, 5}}, nil)
	d := mqo.Delta{AddQueries: []mqo.AddedQuery{{PlanCosts: []float64{1}}}}
	np, dm, err := d.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	c.MigrateDelta(p, np, dm, 100)
	if c.Len() != 0 {
		t.Fatal("migration of an uncached structure created an entry")
	}
	if s := c.Stats(); s.DeltaMigrations != 0 {
		t.Fatalf("delta migrations = %d, want 0", s.DeltaMigrations)
	}
}

func TestConcurrentCommitLookup(t *testing.T) {
	c := New(4)
	var ps []*mqo.Problem
	for n := 1; n <= 6; n++ {
		costs := make([][]float64, n)
		for i := range costs {
			costs[i] = []float64{float64(i + 1), float64(i + 2)}
		}
		ps = append(ps, prob(t, costs, nil))
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				p := ps[rng.Intn(len(ps))]
				if rng.Intn(2) == 0 {
					inc := make([]int, p.NumQueries())
					commit(c, p, [][]int{}, inc, 1, nil)
				} else if h := c.Lookup(StructureKey(p), p); h != nil {
					if len(h.Incumbent) != p.NumQueries() {
						panic("foreign incumbent")
					}
				}
			}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Len() > 4 {
		t.Fatalf("len = %d exceeds bound 4", c.Len())
	}
}
