package qubo

import (
	"math/rand"
	"testing"
)

// randomSortedTerms draws a random strictly-increasing CSR term list over n
// variables with coefficients in [-5, 5).
func randomSortedTerms(rng *rand.Rand, n int) []Term {
	var terms []Term
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				c := rng.Float64()*10 - 5
				if c == 0 {
					c = 1
				}
				terms = append(terms, Term{I: i, J: j, Coeff: c})
			}
		}
	}
	return terms
}

func TestNewModelFromSortedTermsMatchesBuilder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		linear := make([]float64, n)
		for i := range linear {
			linear[i] = rng.Float64()*10 - 5
		}
		terms := randomSortedTerms(rng, n)
		b := NewBuilder(n)
		for i, c := range linear {
			b.AddLinear(i, c)
		}
		for _, tm := range terms {
			b.AddQuadratic(tm.I, tm.J, tm.Coeff)
		}
		want := b.Build()
		got := NewModelFromSortedTerms(append([]float64(nil), linear...), append([]Term(nil), terms...))
		if got.NumVariables() != want.NumVariables() || got.NumTerms() != want.NumTerms() {
			t.Fatalf("shape (%d vars, %d terms), builder (%d, %d)",
				got.NumVariables(), got.NumTerms(), want.NumVariables(), want.NumTerms())
		}
		for i := 0; i < n; i++ {
			if got.Linear(i) != want.Linear(i) {
				t.Fatalf("linear[%d] = %v, builder %v", i, got.Linear(i), want.Linear(i))
			}
			if got.Degree(i) != want.Degree(i) {
				t.Fatalf("degree[%d] = %d, builder %d", i, got.Degree(i), want.Degree(i))
			}
		}
		for i := range want.Terms() {
			if got.Terms()[i] != want.Terms()[i] {
				t.Fatalf("term[%d] = %+v, builder %+v", i, got.Terms()[i], want.Terms()[i])
			}
		}
		// Energies (and hence annealing trajectories) must agree on random
		// assignments.
		x := make([]int8, n)
		for trial := 0; trial < 20; trial++ {
			for i := range x {
				x[i] = int8(rng.Intn(2))
			}
			if ge, we := got.Energy(x), want.Energy(x); ge != we {
				t.Fatalf("energy %v, builder %v on %v", ge, we, x)
			}
		}
	}
}

func TestNewModelFromSortedTermsValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	lin := func() []float64 { return make([]float64, 3) }
	expectPanic("out-of-order terms", func() {
		NewModelFromSortedTerms(lin(), []Term{{I: 0, J: 2}, {I: 0, J: 1}})
	})
	expectPanic("duplicate term", func() {
		NewModelFromSortedTerms(lin(), []Term{{I: 0, J: 1}, {I: 0, J: 1}})
	})
	expectPanic("I == J", func() {
		NewModelFromSortedTerms(lin(), []Term{{I: 1, J: 1}})
	})
	expectPanic("J out of range", func() {
		NewModelFromSortedTerms(lin(), []Term{{I: 0, J: 3}})
	})
	expectPanic("negative I", func() {
		NewModelFromSortedTerms(lin(), []Term{{I: -1, J: 1}})
	})
}

func TestReweightUpdatesAllViews(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 8
	linear := make([]float64, n)
	terms := randomSortedTerms(rng, n)
	for i := range linear {
		linear[i] = rng.Float64()
	}
	m := NewModelFromSortedTerms(append([]float64(nil), linear...), append([]Term(nil), terms...))
	for round := 0; round < 3; round++ {
		newLin := make([]float64, n)
		for i := range newLin {
			newLin[i] = rng.Float64()*8 - 4
		}
		newCoeffs := make([]float64, len(terms))
		for i := range newCoeffs {
			newCoeffs[i] = rng.Float64()*8 - 4
		}
		m.Reweight(newLin, newCoeffs)
		// The reweighted model must be indistinguishable from one built
		// fresh with the new coefficients — including the adjacency the
		// incremental energy updates read.
		fresh := terms
		fresh = append([]Term(nil), fresh...)
		for i := range fresh {
			fresh[i].Coeff = newCoeffs[i]
		}
		want := NewModelFromSortedTerms(append([]float64(nil), newLin...), fresh)
		for i := 0; i < n; i++ {
			if m.Linear(i) != want.Linear(i) {
				t.Fatalf("round %d: linear[%d] = %v, want %v", round, i, m.Linear(i), want.Linear(i))
			}
			lo, hi := m.rowStart[i], m.rowStart[i+1]
			wlo, whi := want.rowStart[i], want.rowStart[i+1]
			if hi-lo != whi-wlo {
				t.Fatalf("round %d: row %d has %d entries, want %d", round, i, hi-lo, whi-wlo)
			}
			for k := int32(0); k < whi-wlo; k++ {
				if m.nbr[lo+k] != want.nbr[wlo+k] || m.coef[lo+k] != want.coef[wlo+k] {
					t.Fatalf("round %d: row %d entry %d = (%d, %v), want (%d, %v)", round, i, k, m.nbr[lo+k], m.coef[lo+k], want.nbr[wlo+k], want.coef[wlo+k])
				}
			}
		}
		for i := range want.terms {
			if m.terms[i] != want.terms[i] {
				t.Fatalf("round %d: term[%d] = %+v, want %+v", round, i, m.terms[i], want.terms[i])
			}
		}
		x := make([]int8, n)
		for trial := 0; trial < 10; trial++ {
			for i := range x {
				x[i] = int8(rng.Intn(2))
			}
			if ge, we := m.Energy(x), want.Energy(x); ge != we {
				t.Fatalf("round %d: energy %v, want %v", round, ge, we)
			}
		}
	}
	// Shape mismatches must panic rather than corrupt the model.
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("short linear", func() { m.Reweight(make([]float64, n-1), make([]float64, len(terms))) })
	expectPanic("short coeffs", func() { m.Reweight(make([]float64, n), make([]float64, len(terms)+1)) })
}

func TestReweightIsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 16
	terms := randomSortedTerms(rng, n)
	m := NewModelFromSortedTerms(make([]float64, n), terms)
	lin := make([]float64, n)
	coeffs := make([]float64, len(terms))
	m.Reweight(lin, coeffs) // first call builds the position index
	if allocs := testing.AllocsPerRun(50, func() { m.Reweight(lin, coeffs) }); allocs > 0 {
		t.Errorf("Reweight allocates %v objects per call, want 0", allocs)
	}
}
