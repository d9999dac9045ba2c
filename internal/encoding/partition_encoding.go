package encoding

import (
	"fmt"

	"incranneal/internal/qubo"
)

// WeightedEdge is an edge of a partitioning graph: the accumulated cost
// savings between the plans of two queries (Sec. 4.1.1).
type WeightedEdge struct {
	U, V   int
	Weight float64
}

// PartitionEncoding couples a partitioning-graph bisection QUBO with the
// data needed to decode device samples into two query sets.
type PartitionEncoding struct {
	Model *qubo.Model
	// NodeWeights[i] is ω_v of node i (the query's plan count).
	NodeWeights []float64
	// LagrangeA is the multiplier ω_A of Theorem 4.5.
	LagrangeA float64
}

// EncodePartition builds the weighted graph-bisection QUBO of Sec. 4.1.2
// over spin variables s_i ∈ {−1,+1} (one per partitioning-graph node):
//
//	H_A = (Σ_i ω_vi·s_i)²           — balance: equal accumulated plan counts,
//	H_B = Σ_(u,v)∈E ω_e·(1−s_u·s_v)/2 — cut: discarded savings magnitude,
//	H   = ω_A·H_A + H_B.
//
// Minimising H_A yields two distinct query sets of equal accumulated plan
// weight (Theorem 4.2); minimising H_B minimises the savings magnitude
// discarded by the cut (Theorem 4.3); the Lagrange multiplier
// ω_A = max_i Σ_j ω_ij guarantees balanced minima (Theorem 4.5). The spin
// model is converted to an equivalent QUBO via s = 2x − 1 for the
// binary-variable devices.
func EncodePartition(nodeWeights []float64, edges []WeightedEdge) (*PartitionEncoding, error) {
	return EncodePartitionScaled(nodeWeights, edges, 1)
}

// EncodePartitionScaled builds the bisection QUBO with the Lagrange
// multiplier scaled to lagrangeScale·ω_A. Scales below 1 void the
// Theorem 4.5 guarantee and exist for ablation studies; scales above 1
// trade cut quality for stricter balance.
func EncodePartitionScaled(nodeWeights []float64, edges []WeightedEdge, lagrangeScale float64) (*PartitionEncoding, error) {
	n := len(nodeWeights)
	if n == 0 {
		return nil, fmt.Errorf("encoding: empty partitioning graph")
	}
	for i, w := range nodeWeights {
		if w <= 0 {
			return nil, fmt.Errorf("encoding: node %d has non-positive weight %v", i, w)
		}
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V {
			return nil, fmt.Errorf("encoding: invalid partitioning edge (%d,%d)", e.U, e.V)
		}
		if e.Weight < 0 {
			return nil, fmt.Errorf("encoding: negative partitioning edge weight %v", e.Weight)
		}
	}
	if lagrangeScale <= 0 {
		return nil, fmt.Errorf("encoding: lagrange scale must be positive, got %v", lagrangeScale)
	}
	lagrange := lagrangeScale * LagrangeMultiplier(n, edges)
	// The balance term couples *every* spin pair, so the coupling matrix is
	// dense: accumulate it in a flat upper-triangular array and emit the
	// QUBO terms directly in CSR order, instead of accumulating a coupling
	// map and sorting it at every recursion level of the partitioning
	// phase. The float operations replicate the map-backed reference
	// encoder of the tests exactly — balance couplings first, then the edge
	// couplings in slice order, then the s = 2x − 1 substitution over pairs
	// in row-major (= sorted-key) order — so the resulting model is
	// bit-identical (pinned by TestEncodePartitionCSRMatchesBuilder).
	coup := make([]float64, n*(n-1)/2)
	idx := func(i, j int) int { // i < j
		return i*(2*n-i-1)/2 + (j - i - 1)
	}
	// ω_A·H_A = ω_A·(Σ ω_i s_i)² = ω_A·Σ ω_i² + 2ω_A·Σ_{i<j} ω_i ω_j s_i s_j
	// (the constant shifts no minimum and is dropped).
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			coup[k] = 2 * lagrange * nodeWeights[i] * nodeWeights[j]
			k++
		}
	}
	// H_B = Σ ω_e/2 − Σ (ω_e/2)·s_u·s_v.
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		coup[idx(u, v)] += -e.Weight / 2
	}
	// Substitute s = 2x − 1: J·s_i·s_j = 4J·x_i·x_j − 2J·x_i − 2J·x_j + J.
	linear := make([]float64, n)
	terms := make([]qubo.Term, 0, len(coup))
	k = 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := coup[k]
			k++
			linear[i] += -2 * c
			linear[j] += -2 * c
			if qc := 4 * c; qc != 0 {
				terms = append(terms, qubo.Term{I: i, J: j, Coeff: qc})
			}
		}
	}
	return &PartitionEncoding{
		Model:       qubo.NewModelFromSortedTerms(linear, terms),
		NodeWeights: append([]float64(nil), nodeWeights...),
		LagrangeA:   lagrange,
	}, nil
}

// LagrangeMultiplier returns ω_A = max_{q_i} Σ_{q_j≠q_i} ω_ij — the largest
// accumulated edge weight incident to any single node — which per
// Theorem 4.5 makes the H_A penalty for any balance violation outweigh the
// maximum H_B benefit. A floor of 1 keeps the balance term active on
// edgeless graphs.
func LagrangeMultiplier(numNodes int, edges []WeightedEdge) float64 {
	incident := make([]float64, numNodes)
	for _, e := range edges {
		incident[e.U] += e.Weight
		incident[e.V] += e.Weight
	}
	var mx float64
	for _, w := range incident {
		if w > mx {
			mx = w
		}
	}
	if mx < 1 {
		mx = 1
	}
	return mx
}

// Decode splits the node indices into the two partitions implied by a
// device sample of the bisection QUBO: binary 1 corresponds to spin +1
// (first partition), binary 0 to spin −1 (second).
func (e *PartitionEncoding) Decode(assignment []int8) (part1, part2 []int, err error) {
	if len(assignment) != len(e.NodeWeights) {
		return nil, nil, fmt.Errorf("encoding: sample has %d variables, graph has %d nodes", len(assignment), len(e.NodeWeights))
	}
	for i, x := range assignment {
		if x != 0 {
			part1 = append(part1, i)
		} else {
			part2 = append(part2, i)
		}
	}
	return part1, part2, nil
}

// Imbalance returns |Σ_{part1} ω_v − Σ_{part2} ω_v| for the given
// bipartition: zero for perfectly balanced plan counts.
func (e *PartitionEncoding) Imbalance(inPart1 []bool) float64 {
	var diff float64
	for i, w := range e.NodeWeights {
		if inPart1[i] {
			diff += w
		} else {
			diff -= w
		}
	}
	if diff < 0 {
		diff = -diff
	}
	return diff
}
