package qubo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomModel builds a random QUBO for property tests.
func randomModel(rng *rand.Rand, n int, density float64) *Model {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddLinear(i, rng.NormFloat64()*10)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				b.AddQuadratic(i, j, rng.NormFloat64()*10)
			}
		}
	}
	return b.Build()
}

func randomAssignment(rng *rand.Rand, n int) []int8 {
	x := make([]int8, n)
	for i := range x {
		x[i] = int8(rng.Intn(2))
	}
	return x
}

func TestBuilderAccumulates(t *testing.T) {
	b := NewBuilder(3)
	b.AddLinear(0, 2)
	b.AddLinear(0, 3)
	b.AddQuadratic(0, 1, 1)
	b.AddQuadratic(1, 0, 2) // order-insensitive, sums to 3
	b.AddQuadratic(2, 2, 7) // folds into linear of 2
	m := b.Build()
	if got := m.Linear(0); got != 5 {
		t.Errorf("Linear(0) = %v, want 5", got)
	}
	if got := m.Linear(2); got != 7 {
		t.Errorf("Linear(2) = %v, want 7 (x²=x fold)", got)
	}
	if got := m.NumTerms(); got != 1 {
		t.Fatalf("NumTerms = %d, want 1", got)
	}
	if tm := m.Terms()[0]; tm.I != 0 || tm.J != 1 || tm.Coeff != 3 {
		t.Errorf("term = %+v, want {0 1 3}", tm)
	}
}

func TestBuilderDropsZeroTerms(t *testing.T) {
	b := NewBuilder(2)
	b.AddQuadratic(0, 1, 5)
	b.AddQuadratic(0, 1, -5)
	m := b.Build()
	if m.NumTerms() != 0 {
		t.Errorf("zero-sum quadratic term kept: %v", m.Terms())
	}
}

func TestEnergyKnownValues(t *testing.T) {
	// f(x) = 2x0 − 3x1 + 4x0x1.
	b := NewBuilder(2)
	b.AddLinear(0, 2)
	b.AddLinear(1, -3)
	b.AddQuadratic(0, 1, 4)
	m := b.Build()
	cases := []struct {
		x    []int8
		want float64
	}{
		{[]int8{0, 0}, 0},
		{[]int8{1, 0}, 2},
		{[]int8{0, 1}, -3},
		{[]int8{1, 1}, 3},
	}
	for _, tc := range cases {
		if got := m.Energy(tc.x); got != tc.want {
			t.Errorf("Energy(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestStateIncrementalMatchesDirect(t *testing.T) {
	// Property: after arbitrary flip sequences, incremental energy and
	// delta match direct evaluation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng, 12, 0.5)
		st := NewRandomState(m, rng)
		for step := 0; step < 50; step++ {
			v := rng.Intn(m.NumVariables())
			before := m.Energy(st.Assignment())
			delta := st.DeltaEnergy(v)
			st.Flip(v)
			after := m.Energy(st.Assignment())
			if math.Abs(st.Energy()-after) > 1e-6 {
				return false
			}
			if math.Abs((after-before)-delta) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStateReset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomModel(rng, 10, 0.4)
	st := NewState(m)
	x := randomAssignment(rng, 10)
	st.Reset(x)
	if math.Abs(st.Energy()-m.Energy(x)) > 1e-9 {
		t.Errorf("Reset energy = %v, want %v", st.Energy(), m.Energy(x))
	}
	for v := 0; v < 10; v++ {
		if st.Get(v) != x[v] {
			t.Fatalf("Reset lost assignment at %d", v)
		}
	}
}

func TestStateCopyIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomModel(rng, 8, 0.5)
	st := NewRandomState(m, rng)
	cp := st.Copy()
	before := cp.Energy()
	st.Flip(0)
	if cp.Energy() != before {
		t.Error("Copy shares state with original")
	}
}

func TestMaxAbsCoefficient(t *testing.T) {
	b := NewBuilder(3)
	b.AddLinear(0, -7)
	b.AddQuadratic(1, 2, 3)
	m := b.Build()
	if got := m.MaxAbsCoefficient(); got != 7 {
		t.Errorf("MaxAbsCoefficient = %v, want 7", got)
	}
}

func TestDeltaRange(t *testing.T) {
	b := NewBuilder(4)
	b.AddLinear(0, -1.5)
	b.AddLinear(1, 0.25)
	b.AddQuadratic(0, 1, 2)
	b.AddQuadratic(1, 2, -3)
	largest, smallest := b.Build().DeltaRange()
	// Variable 1: |0.25| + |2| + |−3|; variable 3 has no coefficient.
	if largest != 5.25 || smallest != 0.25 {
		t.Errorf("DeltaRange = (%v, %v), want (5.25, 0.25)", largest, smallest)
	}
	if largest, smallest := NewBuilder(2).Build().DeltaRange(); largest != 1 || smallest != 1 {
		t.Errorf("all-zero DeltaRange = (%v, %v), want (1, 1)", largest, smallest)
	}
}

func TestClampedSubModelEnergyAlignment(t *testing.T) {
	// For fixed outside variables, sub-model energy differences must equal
	// global energy differences.
	b := NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddLinear(i, float64(i)-2.5)
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddQuadratic(i, j, float64(i-j))
		}
	}
	m := b.Build()
	st := NewState(m)
	st.Reset([]int8{1, 0, 1, 1, 0, 1})
	block := []int{1, 3, 5}
	sub := st.ClampedSubModel(block)
	full := st.Assignment()
	subX := []int8{full[1], full[3], full[5]}
	baseSub, baseFull := sub.Energy(subX), m.Energy(full)
	// Flip each block variable and compare deltas.
	for bi, v := range block {
		subX[bi] ^= 1
		full[v] ^= 1
		dSub := sub.Energy(subX) - baseSub
		dFull := m.Energy(full) - baseFull
		if math.Abs(dSub-dFull) > 1e-9 {
			t.Errorf("block var %d: sub delta %v, full delta %v", v, dSub, dFull)
		}
		subX[bi] ^= 1
		full[v] ^= 1
	}
}
