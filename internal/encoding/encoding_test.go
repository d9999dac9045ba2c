package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"incranneal/internal/mqo"
)

// enumerate calls fn with every assignment of n binary variables (n ≤ 20).
func enumerate(n int, fn func(x []int8)) {
	x := make([]int8, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = int8(mask >> i & 1)
		}
		fn(x)
	}
}

func TestEncodeMQOPaperExampleMinimum(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := enc.Model.NumVariables(); got != 8 {
		t.Fatalf("variables = %d, want 8", got)
	}
	// Exhaustively find the minimum-energy assignment; it must be the
	// valid optimal solution (p2,p4,p5,p7) at cost 25 (Example 3.1).
	var bestX []int8
	bestE := math.Inf(1)
	enumerate(8, func(x []int8) {
		if e := enc.Model.Energy(x); e < bestE {
			bestE = e
			bestX = append([]int8(nil), x...)
		}
	})
	if !enc.IsValidSample(bestX) {
		t.Fatalf("minimum-energy sample %v violates one-hot constraint", bestX)
	}
	sol, err := enc.Decode(bestX)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(p); got != 25 {
		t.Errorf("decoded minimum cost = %v, want 25", got)
	}
	want := []int{1, 3, 4, 6}
	for q, pl := range sol.Selected {
		if pl != want[q] {
			t.Errorf("decoded selection = %v, want %v", sol.Selected, want)
			break
		}
	}
}

func TestEncodedEnergyTracksSolutionCost(t *testing.T) {
	// For valid assignments, energy differences equal cost differences
	// (the constraint term contributes a constant −? no: zero excess —
	// the expanded penalty contributes exactly −A per query, a constant).
	p := mqo.PaperExample()
	enc, err := EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		sel []int
	}
	sols := []pair{
		{[]int{0, 2, 5, 7}}, // greedy, cost 34
		{[]int{1, 3, 4, 6}}, // optimal, cost 25
		{[]int{1, 3, 5, 7}}, // parallel merge, cost 32
	}
	var offset float64
	for i, s := range sols {
		x := make([]int8, p.NumPlans())
		for _, pl := range s.sel {
			x[pl] = 1
		}
		sol := &mqo.Solution{Selected: s.sel}
		diff := enc.Model.Energy(x) - sol.Cost(p)
		if i == 0 {
			offset = diff
			continue
		}
		if math.Abs(diff-offset) > 1e-9 {
			t.Errorf("energy−cost offset varies: %v vs %v", diff, offset)
		}
	}
}

func TestSufficientPenaltyGuaranteesValidMinimaProperty(t *testing.T) {
	// Property: on random small instances, every exhaustive minimum of the
	// encoded model satisfies the one-hot constraint.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomSmallProblem(rng)
		enc, err := EncodeMQO(p)
		if err != nil {
			return false
		}
		n := enc.Model.NumVariables()
		bestE := math.Inf(1)
		var bestX []int8
		enumerate(n, func(x []int8) {
			if e := enc.Model.Energy(x); e < bestE-1e-12 {
				bestE = e
				bestX = append([]int8(nil), x...)
			}
		})
		return enc.IsValidSample(bestX)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSufficientPenaltyWithNegativeCosts(t *testing.T) {
	// DSS can push plan costs below zero; the penalty derivation must
	// still keep minima valid. Build such an instance through AdjustCost.
	p := mqo.PaperExample()
	sub, err := mqo.Extract(p, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	sub.AdjustCost(4, 50) // c5 → −39
	sub.AdjustCost(6, 30) // c7 → −16
	enc, err := EncodeMQO(sub.Local)
	if err != nil {
		t.Fatal(err)
	}
	bestE := math.Inf(1)
	var bestX []int8
	enumerate(enc.Model.NumVariables(), func(x []int8) {
		if e := enc.Model.Energy(x); e < bestE {
			bestE = e
			bestX = append([]int8(nil), x...)
		}
	})
	if !enc.IsValidSample(bestX) {
		t.Errorf("minimum with negative costs is invalid: %v", bestX)
	}
}

func TestDecodeRepairsInvalidSamples(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	// All-zero sample: no plan selected anywhere.
	sol, err := enc.Decode(make([]int8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil || !sol.Complete() {
		t.Errorf("repair of all-zero sample failed: %v / complete=%v", err, sol.Complete())
	}
	// Over-selected sample.
	sol, err = enc.Decode([]int8{1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil || !sol.Complete() {
		t.Errorf("repair of all-one sample failed: %v / complete=%v", err, sol.Complete())
	}
	if _, err := enc.Decode([]int8{1}); err == nil {
		t.Error("Decode accepted short sample")
	}
}

func randomSmallProblem(rng *rand.Rand) *mqo.Problem {
	queries := 2 + rng.Intn(3)
	costs := make([][]float64, queries)
	ppq := 2 + rng.Intn(2)
	for q := range costs {
		cs := make([]float64, ppq)
		for i := range cs {
			cs[i] = 1 + rng.Float64()*19
		}
		costs[q] = cs
	}
	var savings []mqo.Saving
	for q1 := 0; q1 < queries; q1++ {
		for q2 := q1 + 1; q2 < queries; q2++ {
			for i := 0; i < ppq; i++ {
				for j := 0; j < ppq; j++ {
					if rng.Float64() < 0.5 {
						savings = append(savings, mqo.Saving{
							P1:    q1*ppq + i,
							P2:    q2*ppq + j,
							Value: 1 + rng.Float64()*9,
						})
					}
				}
			}
		}
	}
	p, err := mqo.NewProblem(costs, savings)
	if err != nil {
		panic(err)
	}
	return p
}

func TestEncodePartitionPaperEnergies(t *testing.T) {
	// Example 4.4: node weights all 2; edges ω12=8, ω14=5, ω23=5, ω34=8.
	weights := []float64{2, 2, 2, 2}
	edges := []WeightedEdge{
		{U: 0, V: 1, Weight: 8},
		{U: 0, V: 3, Weight: 5},
		{U: 1, V: 2, Weight: 5},
		{U: 2, V: 3, Weight: 8},
	}
	// Verify H_A and H_B on the spin formulation directly.
	hA := func(s []int8) float64 {
		var sum float64
		for i, w := range weights {
			sum += w * float64(s[i])
		}
		return sum * sum
	}
	hB := func(s []int8) float64 {
		var e float64
		for _, ed := range edges {
			e += ed.Weight * (1 - float64(s[ed.U])*float64(s[ed.V])) / 2
		}
		return e
	}
	// Balanced split (q1,q2)|(q3,q4): H_A = 0, H_B = 10.
	s := []int8{1, 1, -1, -1}
	if got := hA(s); got != 0 {
		t.Errorf("H_A balanced = %v, want 0", got)
	}
	if got := hB(s); got != 10 {
		t.Errorf("H_B (q1,q2)|(q3,q4) = %v, want 10", got)
	}
	// Imbalanced (q1,q2,q3)|(q4): H_A = 16.
	if got := hA([]int8{1, 1, 1, -1}); got != 16 {
		t.Errorf("H_A 3|1 = %v, want 16", got)
	}
	// Degenerate all|none: H_A = 64.
	if got := hA([]int8{1, 1, 1, 1}); got != 64 {
		t.Errorf("H_A 4|0 = %v, want 64", got)
	}
	// Alternative balanced splits: H_B = 16 and 26 (Example 4.4).
	if got := hB([]int8{1, -1, -1, 1}); got != 16 {
		t.Errorf("H_B (q1,q4)|(q2,q3) = %v, want 16", got)
	}
	if got := hB([]int8{1, -1, 1, -1}); got != 26 {
		t.Errorf("H_B (q1,q3)|(q2,q4) = %v, want 26", got)
	}

	// The QUBO built from the same data must attain its minimum exactly at
	// the two (symmetric) minimal cuts (q1,q2)|(q3,q4).
	enc, err := EncodePartition(weights, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 4.5: ω_A = max incident weight = max(13, 13, 13, 13) = 13.
	if enc.LagrangeA != 13 {
		t.Errorf("LagrangeA = %v, want 13", enc.LagrangeA)
	}
	bestE := math.Inf(1)
	var minima [][]int8
	enumerate(4, func(x []int8) {
		e := enc.Model.Energy(x)
		switch {
		case e < bestE-1e-9:
			bestE = e
			minima = [][]int8{append([]int8(nil), x...)}
		case math.Abs(e-bestE) <= 1e-9:
			minima = append(minima, append([]int8(nil), x...))
		}
	})
	if len(minima) != 2 {
		t.Fatalf("expected 2 symmetric minima, got %d: %v", len(minima), minima)
	}
	for _, x := range minima {
		// Both minima must realise the cut {q1,q2} vs {q3,q4}.
		if x[0] != x[1] || x[2] != x[3] || x[0] == x[2] {
			t.Errorf("minimum %v is not the (q1,q2)|(q3,q4) cut", x)
		}
	}
}

func TestEncodePartitionRejectsBadInput(t *testing.T) {
	if _, err := EncodePartition(nil, nil); err == nil {
		t.Error("accepted empty graph")
	}
	if _, err := EncodePartition([]float64{0}, nil); err == nil {
		t.Error("accepted zero node weight")
	}
	if _, err := EncodePartition([]float64{1, 1}, []WeightedEdge{{U: 0, V: 0, Weight: 1}}); err == nil {
		t.Error("accepted self-loop")
	}
	if _, err := EncodePartition([]float64{1, 1}, []WeightedEdge{{U: 0, V: 1, Weight: -2}}); err == nil {
		t.Error("accepted negative edge weight")
	}
}

func TestLagrangeGuaranteesBalanceProperty(t *testing.T) {
	// Property (Theorem 4.5): with ω_A at the bound, every exhaustive
	// minimum of the partition QUBO has the minimum achievable imbalance
	// for equal node weights (zero for an even node count).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + 2*rng.Intn(3) // even: 4, 6, 8
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 1 + float64(rng.Intn(3))
		}
		var edges []WeightedEdge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.6 {
					edges = append(edges, WeightedEdge{U: i, V: j, Weight: 1 + rng.Float64()*9})
				}
			}
		}
		enc, err := EncodePartition(weights, edges)
		if err != nil {
			return false
		}
		// Find the minimum achievable imbalance over all cuts, then check
		// the QUBO minimum achieves it.
		minImb := math.Inf(1)
		in1 := make([]bool, n)
		enumerate(n, func(x []int8) {
			for i, xi := range x {
				in1[i] = xi != 0
			}
			if im := enc.Imbalance(in1); im < minImb {
				minImb = im
			}
		})
		bestE := math.Inf(1)
		var bestX []int8
		enumerate(n, func(x []int8) {
			if e := enc.Model.Energy(x); e < bestE {
				bestE = e
				bestX = append([]int8(nil), x...)
			}
		})
		for i, xi := range bestX {
			in1[i] = xi != 0
		}
		return enc.Imbalance(in1) == minImb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPartitionDecodeAndCutWeight(t *testing.T) {
	weights := []float64{2, 2, 2, 2}
	edges := []WeightedEdge{{U: 0, V: 1, Weight: 8}, {U: 2, V: 3, Weight: 8}, {U: 0, V: 3, Weight: 5}, {U: 1, V: 2, Weight: 5}}
	enc, err := EncodePartition(weights, edges)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2, err := enc.Decode([]int8{1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 2 || len(p2) != 2 || p1[0] != 0 || p1[1] != 1 {
		t.Errorf("decode = %v | %v, want [0 1] | [2 3]", p1, p2)
	}
	if _, _, err := enc.Decode([]int8{1}); err == nil {
		t.Error("Decode accepted short sample")
	}
}
