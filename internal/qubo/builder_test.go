package qubo

import (
	"math/rand"
	"testing"
)

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	b := NewBuilder(2)
	assertPanics("AddLinear(-1)", func() { b.AddLinear(-1, 1) })
	assertPanics("AddLinear(2)", func() { b.AddLinear(2, 1) })
	assertPanics("AddQuadratic(0,5)", func() { b.AddQuadratic(0, 5, 1) })
	assertPanics("NewBuilder(-1)", func() { NewBuilder(-1) })
}

func TestEnergyPanicsOnWrongLength(t *testing.T) {
	b := NewBuilder(3)
	b.AddLinear(0, 1)
	m := b.Build()
	defer func() {
		if recover() == nil {
			t.Error("Energy accepted short state")
		}
	}()
	m.Energy([]int8{1})
}

func TestTermsSortedAndDegree(t *testing.T) {
	b := NewBuilder(4)
	b.AddQuadratic(2, 3, 1)
	b.AddQuadratic(0, 1, 1)
	b.AddQuadratic(0, 3, 1)
	m := b.Build()
	terms := m.Terms()
	for i := 1; i < len(terms); i++ {
		prev, cur := terms[i-1], terms[i]
		if cur.I < prev.I || (cur.I == prev.I && cur.J < prev.J) {
			t.Fatalf("terms unsorted: %+v", terms)
		}
	}
	if m.Degree(0) != 2 || m.Degree(3) != 2 || m.Degree(2) != 1 {
		t.Errorf("degrees = %d, %d, %d", m.Degree(0), m.Degree(3), m.Degree(2))
	}
}

// TestRowsListEachNeighbourOnce pins the row layout the AVX-512 sparse
// flip relies on: gathering and scattering eight neighbours at once is
// exact only because a row lists each neighbour once, never the variable
// itself, and only variables of the model. Both constructors are checked,
// on dense and sparse models.
func TestRowsListEachNeighbourOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		built := randomModel(rng, n, []float64{0.05, 0.3, 1}[trial%3])
		linear := make([]float64, n)
		for i := range linear {
			linear[i] = built.Linear(i)
		}
		sorted := NewModelFromSortedTerms(linear, append([]Term(nil), built.Terms()...))
		for _, m := range []*Model{built, sorted} {
			seen := make([]int, n)
			for i := 0; i < n; i++ {
				for _, j := range m.nbr[m.rowStart[i]:m.rowStart[i+1]] {
					if j < 0 || int(j) >= n {
						t.Fatalf("trial %d: row %d lists %d, outside [0,%d)", trial, i, j, n)
					}
					if int(j) == i {
						t.Fatalf("trial %d: row %d lists itself", trial, i)
					}
					if seen[j] == i+1 {
						t.Fatalf("trial %d: row %d lists %d twice", trial, i, j)
					}
					seen[j] = i + 1
				}
			}
		}
	}
}
