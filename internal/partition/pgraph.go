// Package partition implements the problem-partitioning phase of the
// paper's incremental method (Sec. 4.1): compressing an MQO problem into a
// partitioning graph, bisecting that graph on a quantum(-inspired) device
// via the QUBO encoding of Sec. 4.1.2, refining the split with the
// post-processing pass of Algorithm 1, and recursing until every partial
// problem fits the device's variable capacity. The same recursion splits
// any node-weighted graph (Split), such as the relation graph of join
// ordering (Sec. 7).
package partition

import (
	"sort"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
)

// Graph is a node- and edge-weighted partitioning graph. For an MQO
// problem it is the graph of Sec. 4.1.1: one node per query (weight =
// number of alternative plans) and one edge per query pair sharing at
// least one cost saving (weight = accumulated saving value between their
// plans). A node's weight is what it adds to a set's size against
// Options.Capacity; an edge's weight is what a partitioning that cuts it
// loses.
type Graph struct {
	// NodeWeights[v] is node v's weight; |P_q| for query q.
	NodeWeights []float64
	// Edges lists the weighted node pairs, U < V, sorted by (U, V).
	Edges []encoding.WeightedEdge
	// Compressed adjacency rows: node q's neighbours are
	// nbr[rowStart[q]:rowStart[q+1]] in ascending order, with the edge
	// weights alongside in wt.
	rowStart []int
	nbr      []int32
	wt       []float64
}

// BuildGraph compresses p into its partitioning graph. Savings are
// bucketed by their pair's lower query and each pair's weight sums its
// savings in p.Savings() order.
func BuildGraph(p *mqo.Problem) *Graph {
	n := p.NumQueries()
	nodeWeights := make([]float64, n)
	for q := range nodeWeights {
		nodeWeights[q] = float64(len(p.Plans(q)))
	}
	savings := p.Savings()
	ends := func(s mqo.Saving) (int, int) {
		u, v := p.QueryOf(s.P1), p.QueryOf(s.P2)
		if u > v {
			u, v = v, u
		}
		return u, v
	}
	// Stable counting sort of the savings by lower query.
	bucket := make([]int, n+1)
	for _, s := range savings {
		u, _ := ends(s)
		bucket[u+1]++
	}
	for u := 0; u < n; u++ {
		bucket[u+1] += bucket[u]
	}
	order := make([]int32, len(savings))
	next := append([]int(nil), bucket[:n]...)
	for i, s := range savings {
		u, _ := ends(s)
		order[next[u]] = int32(i)
		next[u]++
	}
	var edges []encoding.WeightedEdge
	acc := make([]float64, n)
	seen := make([]bool, n)
	var touched []int
	for u := 0; u < n; u++ {
		touched = touched[:0]
		for _, si := range order[bucket[u]:bucket[u+1]] {
			s := savings[si]
			_, v := ends(s)
			if !seen[v] {
				seen[v] = true
				touched = append(touched, v)
			}
			acc[v] += s.Value
		}
		sort.Ints(touched)
		for _, v := range touched {
			edges = append(edges, encoding.WeightedEdge{U: u, V: v, Weight: acc[v]})
			acc[v], seen[v] = 0, false
		}
	}
	return NewGraph(nodeWeights, edges)
}

// NewGraph builds a graph from its node weights and its edge list, which
// must be sorted by (U, V) with U < V and name each node pair at most
// once. Row q receives its lower neighbours from the edges before U = q
// and its higher ones from the edges at U = q, so every row comes out
// ascending.
func NewGraph(nodeWeights []float64, edges []encoding.WeightedEdge) *Graph {
	n := len(nodeWeights)
	g := &Graph{
		NodeWeights: nodeWeights,
		Edges:       edges,
		rowStart:    make([]int, n+1),
		nbr:         make([]int32, 2*len(edges)),
		wt:          make([]float64, 2*len(edges)),
	}
	for _, e := range edges {
		g.rowStart[e.U+1]++
		g.rowStart[e.V+1]++
	}
	for q := 0; q < n; q++ {
		g.rowStart[q+1] += g.rowStart[q]
	}
	next := append([]int(nil), g.rowStart[:n]...)
	for _, e := range edges {
		g.nbr[next[e.U]], g.wt[next[e.U]] = int32(e.V), e.Weight
		next[e.U]++
		g.nbr[next[e.V]], g.wt[next[e.V]] = int32(e.U), e.Weight
		next[e.V]++
	}
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.NodeWeights) }

// row returns node q's ascending neighbours and their edge weights.
func (g *Graph) row(q int) ([]int32, []float64) {
	lo, hi := g.rowStart[q], g.rowStart[q+1]
	return g.nbr[lo:hi], g.wt[lo:hi]
}

// EdgeWeight returns the weight of the edge between two nodes, or zero
// when there is none: for queries, the accumulated saving weight between
// their plans.
func (g *Graph) EdgeWeight(q1, q2 int) float64 {
	nbr, wt := g.row(q1)
	i := sort.Search(len(nbr), func(i int) bool { return int(nbr[i]) >= q2 })
	if i < len(nbr) && int(nbr[i]) == q2 {
		return wt[i]
	}
	return 0
}

// AccumulatedSavings returns Σ_{other∈set, other≠query} ω(query, other):
// the conformance of query to the given query set (AccSavToP1/AccSavToP2 of
// Algorithm 1).
func (g *Graph) AccumulatedSavings(query int, set []int) float64 {
	var t float64
	for _, other := range set {
		if other != query {
			t += g.EdgeWeight(query, other)
		}
	}
	return t
}

// PlanWeight returns the accumulated node weight of a node set: for a
// query set, its total plan count, the variable count its partial
// problem's QUBO will need.
func (g *Graph) PlanWeight(set []int) float64 {
	var t float64
	for _, q := range set {
		t += g.NodeWeights[q]
	}
	return t
}

// CutWeight returns the accumulated edge weight between the two node sets:
// for query sets, the savings magnitude a partitioning into them discards. It sums
// over the sorted Edges slice, so the float accumulation order — and
// therefore the result down to the last ulp — is identical on every call.
// PostProcessBest compares the cut weights of two orientations that can be
// mirror images of each other; summing in map iteration order once made
// that comparison flip at random between processes.
func (g *Graph) CutWeight(part1, part2 []int) float64 {
	side := make([]int8, g.NumNodes())
	for _, q := range part1 {
		side[q] |= 1
	}
	for _, q := range part2 {
		side[q] |= 2
	}
	var cut float64
	for _, e := range g.Edges {
		if su, sv := side[e.U], side[e.V]; su&1 != 0 && sv&2 != 0 || su&2 != 0 && sv&1 != 0 {
			cut += e.Weight
		}
	}
	return cut
}

// Subgraph returns the induced graph over the given nodes, re-numbered
// 0..len(queries)-1 in the given order.
func (g *Graph) Subgraph(queries []int) *Graph {
	localOf := make([]int32, g.NumNodes()) // local index + 1; 0 = outside
	for li, q := range queries {
		localOf[q] = int32(li + 1)
	}
	nodeWeights := make([]float64, len(queries))
	var edges []encoding.WeightedEdge
	for li, q := range queries {
		nodeWeights[li] = g.NodeWeights[q]
		nbr, wt := g.row(q)
		for k, other := range nbr {
			if lo := int(localOf[other]) - 1; lo > li {
				edges = append(edges, encoding.WeightedEdge{U: li, V: lo, Weight: wt[k]})
			}
		}
	}
	// Ascending queries keep every row ascending in local numbering, so
	// the edges come out sorted; any other order needs the sort.
	if !sort.IntsAreSorted(queries) {
		sortEdges(edges)
	}
	return NewGraph(nodeWeights, edges)
}

// sortEdges orders edges by (U, V).
func sortEdges(edges []encoding.WeightedEdge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
}
