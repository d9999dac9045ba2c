package encoding

import (
	"math"
	"math/rand"
	"testing"

	"incranneal/internal/mqo"
	"incranneal/internal/qubo"
)

// encodeMQOBuilder is the map-backed Trummer–Koch encoder: every term is
// added through qubo.Builder, which sums and sorts them. It is the
// reference the prepared skeleton is tested against bit for bit.
func encodeMQOBuilder(p *mqo.Problem) *MQOEncoding {
	a := sufficientPenalty(p)
	b := qubo.NewBuilder(p.NumPlans())
	for q := 0; q < p.NumQueries(); q++ {
		plans := p.Plans(q)
		// A·(1 − Σx)² expands to A − A·Σ_p x_p + 2A·Σ_{p<p'} x_p·x_p'
		// (using x² = x); the constant is dropped.
		for _, pl := range plans {
			b.AddLinear(pl, -a)
		}
		for i := 0; i < len(plans); i++ {
			for j := i + 1; j < len(plans); j++ {
				b.AddQuadratic(plans[i], plans[j], 2*a)
			}
		}
	}
	for pl := 0; pl < p.NumPlans(); pl++ {
		b.AddLinear(pl, p.Cost(pl))
	}
	for _, s := range p.Savings() {
		b.AddQuadratic(s.P1, s.P2, -s.Value)
	}
	return &MQOEncoding{Problem: p, Model: b.Build(), Penalty: a}
}

// sufficientPenalty is PreparedMQO.Penalty computed from the problem
// alone: A exceeds max_p (incident(p) − c_p) and max_p c_p.
func sufficientPenalty(p *mqo.Problem) float64 {
	var bound float64
	for pl := 0; pl < p.NumPlans(); pl++ {
		var incident float64
		for _, s := range p.SavingsOf(pl) {
			incident += s.Value
		}
		c := p.Cost(pl)
		bound = math.Max(bound, incident-c)
		bound = math.Max(bound, c)
	}
	return bound + 1
}

// assertMatchesFresh checks that pp's materialised encoding equals the
// Builder reference of the same (possibly cost-adjusted) problem state with
// exact float equality — the bit-identity contract that keeps pipeline
// results independent of whether encodings are rebuilt or reweighted.
func assertMatchesFresh(t *testing.T, pp *PreparedMQO, tag string) {
	t.Helper()
	got := pp.Encoding()
	want := encodeMQOBuilder(pp.Problem)
	if got.Penalty != want.Penalty {
		t.Fatalf("%s: penalty %v, fresh %v", tag, got.Penalty, want.Penalty)
	}
	if got.Model.NumVariables() != want.Model.NumVariables() {
		t.Fatalf("%s: %d variables, fresh %d", tag, got.Model.NumVariables(), want.Model.NumVariables())
	}
	for i := 0; i < want.Model.NumVariables(); i++ {
		if got.Model.Linear(i) != want.Model.Linear(i) {
			t.Fatalf("%s: linear[%d] = %v, fresh %v", tag, i, got.Model.Linear(i), want.Model.Linear(i))
		}
	}
	gt, wt := got.Model.Terms(), want.Model.Terms()
	if len(gt) != len(wt) {
		t.Fatalf("%s: %d terms, fresh %d", tag, len(gt), len(wt))
	}
	for i := range wt {
		if gt[i] != wt[i] {
			t.Fatalf("%s: term[%d] = %+v, fresh %+v", tag, i, gt[i], wt[i])
		}
	}
}

func TestPrepareMQOMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomSmallProblem(rng)
		all := make([]int, p.NumQueries())
		for i := range all {
			all[i] = i
		}
		sub, err := mqo.Extract(p, all)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := PrepareMQO(sub.Local)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesFresh(t, pp, "initial")
		// Arbitrary AdjustCost sequences, including ones that drive costs
		// negative (DSS can), must keep the reweighted model bit-identical
		// to a from-scratch encode after every pass.
		for round := 0; round < 5; round++ {
			for k := 1 + rng.Intn(6); k > 0; k-- {
				sub.AdjustCost(rng.Intn(sub.Local.NumPlans()), rng.Float64()*15-2)
			}
			assertMatchesFresh(t, pp, "after adjustments")
		}
	}
}

func TestPrepareMQOSkipsZeroSavings(t *testing.T) {
	// Builder.Build drops exact-zero quadratic terms, so the skeleton must
	// omit zero-valued savings to keep the term lists aligned.
	p, err := mqo.NewProblem(
		[][]float64{{3, 5}, {2, 4}, {6, 1}},
		[]mqo.Saving{{P1: 0, P2: 2, Value: 0}, {P1: 1, P2: 4, Value: 2.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PrepareMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesFresh(t, pp, "zero-saving instance")
}

func TestPreparedEncodingReusesModel(t *testing.T) {
	p := mqo.PaperExample()
	all := make([]int, p.NumQueries())
	for i := range all {
		all[i] = i
	}
	sub, err := mqo.Extract(p, all)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PrepareMQO(sub.Local)
	if err != nil {
		t.Fatal(err)
	}
	first := pp.Encoding()
	sub.AdjustCost(0, 1.5)
	second := pp.Encoding()
	if first != second || first.Model != second.Model {
		t.Error("Encoding must rewrite and return the same buffers")
	}
	assertMatchesFresh(t, pp, "after reuse")
	// Re-materialising must not allocate: the whole point of the skeleton.
	if allocs := testing.AllocsPerRun(50, func() { pp.Encoding() }); allocs > 0 {
		t.Errorf("re-materialisation allocates %v objects per call, want 0", allocs)
	}
}

func TestPrepareMQORejectsEmptyProblem(t *testing.T) {
	if _, err := PrepareMQO(&mqo.Problem{}); err == nil {
		t.Error("PrepareMQO accepted an empty problem")
	}
}

func FuzzPrepareMQOReweight(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(0))
	f.Add(int64(7), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := randomSmallProblem(rng)
		all := make([]int, p.NumQueries())
		for i := range all {
			all[i] = i
		}
		sub, err := mqo.Extract(p, all)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := PrepareMQO(sub.Local)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesFresh(t, pp, "initial")
		for r := 0; r < int(rounds%16); r++ {
			sub.AdjustCost(rng.Intn(sub.Local.NumPlans()), rng.Float64()*20-4)
			assertMatchesFresh(t, pp, "after adjustment")
		}
	})
}

// encodePartitionScaledBuilder is the map-backed reference the CSR fast
// path is tested against bit for bit: spin couplings accumulate in a map,
// then convert to QUBO via s = 2x − 1 through qubo.Builder in sorted key
// order. Constant energy terms are dropped.
func encodePartitionScaledBuilder(nodeWeights []float64, edges []WeightedEdge, lagrangeScale float64) *PartitionEncoding {
	n := len(nodeWeights)
	lagrange := lagrangeScale * LagrangeMultiplier(n, edges)
	coup := make(map[[2]int]float64)
	couple := func(i, j int, c float64) {
		if i > j {
			i, j = j, i
		}
		coup[[2]int{i, j}] += c
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			couple(i, j, 2*lagrange*nodeWeights[i]*nodeWeights[j])
		}
	}
	for _, e := range edges {
		couple(e.U, e.V, -e.Weight/2)
	}
	// J·s_i·s_j = 4J·x_i·x_j − 2J·x_i − 2J·x_j + J, in row-major key order.
	b := qubo.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c, ok := coup[[2]int{i, j}]
			if !ok {
				continue
			}
			b.AddQuadratic(i, j, 4*c)
			b.AddLinear(i, -2*c)
			b.AddLinear(j, -2*c)
		}
	}
	return &PartitionEncoding{
		Model:       b.Build(),
		NodeWeights: append([]float64(nil), nodeWeights...),
		LagrangeA:   lagrange,
	}
}

func TestEncodePartitionCSRMatchesBuilder(t *testing.T) {
	check := func(t *testing.T, weights []float64, edges []WeightedEdge, scale float64) {
		t.Helper()
		got, err := EncodePartitionScaled(weights, edges, scale)
		if err != nil {
			t.Fatal(err)
		}
		want := encodePartitionScaledBuilder(weights, edges, scale)
		if got.LagrangeA != want.LagrangeA {
			t.Fatalf("lagrange %v, builder %v", got.LagrangeA, want.LagrangeA)
		}
		if got.Model.NumVariables() != want.Model.NumVariables() {
			t.Fatalf("%d variables, builder %d", got.Model.NumVariables(), want.Model.NumVariables())
		}
		for i := 0; i < want.Model.NumVariables(); i++ {
			if got.Model.Linear(i) != want.Model.Linear(i) {
				t.Fatalf("linear[%d] = %v, builder %v", i, got.Model.Linear(i), want.Model.Linear(i))
			}
		}
		gt, wt := got.Model.Terms(), want.Model.Terms()
		if len(gt) != len(wt) {
			t.Fatalf("%d terms, builder %d", len(gt), len(wt))
		}
		for i := range wt {
			if gt[i] != wt[i] {
				t.Fatalf("term[%d] = %+v, builder %+v", i, gt[i], wt[i])
			}
		}
	}
	// The paper's running example graph (Fig. 2 weights).
	check(t,
		[]float64{2, 2, 2, 2},
		[]WeightedEdge{{U: 0, V: 1, Weight: 10}, {U: 1, V: 2, Weight: 3}, {U: 2, V: 3, Weight: 8}},
		1)
	// Random graphs, including reversed and duplicate edges and ablation
	// Lagrange scales.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 1 + float64(rng.Intn(5))
		}
		var edges []WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				for rng.Float64() < 0.4 {
					e := WeightedEdge{U: u, V: v, Weight: rng.Float64() * 9}
					if rng.Intn(2) == 0 {
						e.U, e.V = e.V, e.U
					}
					edges = append(edges, e)
				}
			}
		}
		for _, scale := range []float64{1, 0.5, 2} {
			check(t, weights, edges, scale)
		}
	}
}
