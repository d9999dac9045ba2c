package partition

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/workload"
)

// mapGraph is the original map-backed partitioning graph, kept as the
// reference the CSR Graph is tested against bit for bit
// (TestGraphMatchesMapReference).
type mapGraph struct {
	nodeWeights []float64
	edges       []encoding.WeightedEdge
	adjacency   []map[int]float64
}

func buildMapGraph(p *mqo.Problem) *mapGraph {
	g := &mapGraph{
		nodeWeights: make([]float64, p.NumQueries()),
		adjacency:   make([]map[int]float64, p.NumQueries()),
	}
	for q := 0; q < p.NumQueries(); q++ {
		g.nodeWeights[q] = float64(len(p.Plans(q)))
		g.adjacency[q] = make(map[int]float64)
	}
	for _, s := range p.Savings() {
		q1, q2 := p.QueryOf(s.P1), p.QueryOf(s.P2)
		g.adjacency[q1][q2] += s.Value
		g.adjacency[q2][q1] += s.Value
	}
	for u, nb := range g.adjacency {
		for v, w := range nb {
			if u < v {
				g.edges = append(g.edges, encoding.WeightedEdge{U: u, V: v, Weight: w})
			}
		}
	}
	sortEdges(g.edges)
	return g
}

func (g *mapGraph) edgeWeight(q1, q2 int) float64 { return g.adjacency[q1][q2] }

func (g *mapGraph) accumulatedSavings(query int, set []int) float64 {
	var t float64
	nb := g.adjacency[query]
	for _, other := range set {
		if other != query {
			t += nb[other]
		}
	}
	return t
}

func (g *mapGraph) cutWeight(part1, part2 []int) float64 {
	in1 := make(map[int]bool, len(part1))
	for _, q := range part1 {
		in1[q] = true
	}
	in2 := make(map[int]bool, len(part2))
	for _, q := range part2 {
		in2[q] = true
	}
	var cut float64
	for _, e := range g.edges {
		if (in1[e.U] && in2[e.V]) || (in2[e.U] && in1[e.V]) {
			cut += e.Weight
		}
	}
	return cut
}

func (g *mapGraph) subgraph(queries []int) *mapGraph {
	localOf := make(map[int]int, len(queries))
	for li, q := range queries {
		localOf[q] = li
	}
	sub := &mapGraph{
		nodeWeights: make([]float64, len(queries)),
		adjacency:   make([]map[int]float64, len(queries)),
	}
	for li, q := range queries {
		sub.nodeWeights[li] = g.nodeWeights[q]
		sub.adjacency[li] = make(map[int]float64)
	}
	for li, q := range queries {
		for other, w := range g.adjacency[q] {
			lo, ok := localOf[other]
			if !ok {
				continue
			}
			sub.adjacency[li][lo] = w
			if li < lo {
				sub.edges = append(sub.edges, encoding.WeightedEdge{U: li, V: lo, Weight: w})
			}
		}
	}
	sortEdges(sub.edges)
	return sub
}

// postProcess is Algorithm 1 over the map-backed graph, as PostProcess ran
// before the CSR rows.
func (g *mapGraph) postProcess(part1, part2 []int, numParses, minSize int) ([]int, []int) {
	p1 := append([]int(nil), part1...)
	p2 := append([]int(nil), part2...)
	if minSize < 1 {
		minSize = 1
	}
	for parse := 0; parse < numParses; parse++ {
		moved := false
		snapshot := append([]int(nil), p1...)
		for _, query := range snapshot {
			if len(p1) <= minSize {
				break
			}
			if g.accumulatedSavings(query, p1) < g.accumulatedSavings(query, p2) {
				p1 = remove(p1, query)
				p2 = append(p2, query)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return p1, p2
}

// TestGraphMatchesMapReference checks the CSR graph against the map-backed
// reference on generated instances and random query subsets: every edge
// list, edge weight, conformance sum, cut weight, induced subgraph and
// Algorithm 1 outcome must agree down to the last bit.
func TestGraphMatchesMapReference(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameEdges := func(a, b []encoding.WeightedEdge) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].U != b[i].U || a[i].V != b[i].V || !same(a[i].Weight, b[i].Weight) {
				return false
			}
		}
		return true
	}
	for seed := int64(1); seed <= 8; seed++ {
		in, err := workload.GenerateSweep(workload.SweepConfig{
			Queries: 20 + 10*int(seed), PPQ: 2 + int(seed)%4, Communities: 1 + int(seed)%4,
			DensityLow: 0.05, DensityHigh: 0.8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, ref := BuildGraph(in.Problem), buildMapGraph(in.Problem)
		if !reflect.DeepEqual(g.NodeWeights, ref.nodeWeights) || !sameEdges(g.Edges, ref.edges) {
			t.Fatalf("seed %d: BuildGraph differs from the reference", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		n := g.NumNodes()
		for trial := 0; trial < 20; trial++ {
			// Two disjoint random subsets in random order.
			var part1, part2 []int
			for _, q := range rng.Perm(n) {
				switch rng.Intn(3) {
				case 0:
					part1 = append(part1, q)
				case 1:
					part2 = append(part2, q)
				}
			}
			if !same(g.CutWeight(part1, part2), ref.cutWeight(part1, part2)) {
				t.Fatalf("seed %d trial %d: CutWeight differs", seed, trial)
			}
			for k := 0; k < 10; k++ {
				q, o := rng.Intn(n), rng.Intn(n)
				if !same(g.EdgeWeight(q, o), ref.edgeWeight(q, o)) {
					t.Fatalf("seed %d: EdgeWeight(%d,%d) differs", seed, q, o)
				}
				if !same(g.AccumulatedSavings(q, part1), ref.accumulatedSavings(q, part1)) {
					t.Fatalf("seed %d: AccumulatedSavings(%d) differs", seed, q)
				}
			}
			subset := append(append([]int(nil), part1...), part2...)
			if trial%2 == 0 {
				sort.Ints(subset) // the order bisect passes
			}
			sub, subRef := g.Subgraph(subset), ref.subgraph(subset)
			if !reflect.DeepEqual(sub.NodeWeights, subRef.nodeWeights) || !sameEdges(sub.Edges, subRef.edges) {
				t.Fatalf("seed %d trial %d: Subgraph differs", seed, trial)
			}
			for k := 0; k < 10 && len(subset) > 0; k++ {
				a, b := rng.Intn(len(subset)), rng.Intn(len(subset))
				if !same(sub.EdgeWeight(a, b), subRef.edgeWeight(a, b)) {
					t.Fatalf("seed %d trial %d: subgraph EdgeWeight(%d,%d) differs", seed, trial, a, b)
				}
			}
			local1, local2 := make([]int, len(part1)), make([]int, len(part2))
			for i := range local1 {
				local1[i] = i
			}
			for i := range local2 {
				local2[i] = len(part1) + i
			}
			a1, a2 := PostProcess(sub, local1, local2, 4, 1+len(local1)/4)
			b1, b2 := subRef.postProcess(local1, local2, 4, 1+len(local1)/4)
			if !reflect.DeepEqual(a1, b1) || !reflect.DeepEqual(a2, b2) {
				t.Fatalf("seed %d trial %d: PostProcess differs", seed, trial)
			}
		}
	}
}
