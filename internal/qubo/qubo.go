// Package qubo implements the quadratic unconstrained binary optimisation
// (QUBO) formalism required by all quantum(-inspired) annealing devices
// (Sec. 2.1 of the paper). Spin (Ising) formulations, such as the
// bisection encoding of Sec. 4.1.2, are converted to QUBO by their
// encoders via s = 2x − 1.
//
// A QUBO instance is the multivariate polynomial
//
//	f(x) = Σ_i c_ii·x_i + Σ_{i<j} c_ij·x_i·x_j,  x_i ∈ {0,1},
//
// whose minimum-energy configurations encode optimal solutions of the
// original problem. The package provides sparse models, exact and
// incremental energy evaluation (the O(degree) local-field updates that
// hardware annealers perform in parallel).
package qubo

import (
	"fmt"
	"math"
	"sort"
)

// Term is one quadratic coefficient c_ij between variables I < J.
type Term struct {
	I, J  int
	Coeff float64
}

// Model is a sparse QUBO instance. Construct it with a Builder (which
// accumulates arbitrary additions through a map) or, when the caller already
// knows the sorted term structure, with NewModelFromSortedTerms. Models are
// structurally immutable; Reweight overwrites coefficients in place for
// prepared encodings that re-materialise the same structure with new
// weights.
type Model struct {
	n      int
	linear []float64
	// terms holds all quadratic terms with I < J, sorted lexicographically.
	terms []Term
	// Row i of the adjacency is rowStart[i] ≤ k < rowStart[i+1]: nbr[k] is
	// a variable coupled to i and coef[k] the coupling, covering every
	// quadratic term incident to i in ascending neighbour order. Each row's
	// coefficients are contiguous, so the dense FlipCount kernel reads
	// them as one vector stream; it relies on the ascending order.
	rowStart []int32
	nbr      []int32
	coef     []float64
	// adjPos[2t] and adjPos[2t+1] locate term t's two entries in coef; built
	// lazily by Reweight so coefficient updates need no per-call scratch.
	adjPos []int32
}

// Builder accumulates QUBO coefficients. Repeated additions to the same
// (pair of) variable(s) sum up, so encodings can be composed additively
// (e.g. H = ω_A·H_A + H_B).
type Builder struct {
	n      int
	linear []float64
	quad   map[[2]int]float64
}

// NewBuilder returns a builder for a QUBO over n binary variables.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("qubo: negative variable count")
	}
	return &Builder{n: n, linear: make([]float64, n), quad: make(map[[2]int]float64)}
}

// AddLinear adds c to the linear coefficient c_ii of variable i.
func (b *Builder) AddLinear(i int, c float64) {
	b.check(i)
	b.linear[i] += c
}

// AddQuadratic adds c to the quadratic coefficient c_ij of the distinct
// variables i and j (order-insensitive). Adding a quadratic term for i == j
// folds into the linear coefficient, since x·x = x for binary x.
func (b *Builder) AddQuadratic(i, j int, c float64) {
	b.check(i)
	b.check(j)
	if i == j {
		b.linear[i] += c
		return
	}
	if i > j {
		i, j = j, i
	}
	b.quad[[2]int{i, j}] += c
}

func (b *Builder) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("qubo: variable %d out of range [0,%d)", i, b.n))
	}
}

// Build finalises the accumulated coefficients into an immutable Model,
// dropping exact-zero quadratic terms.
func (b *Builder) Build() *Model {
	m := &Model{n: b.n, linear: make([]float64, b.n)}
	copy(m.linear, b.linear)
	m.terms = make([]Term, 0, len(b.quad))
	for k, c := range b.quad {
		if c == 0 {
			continue
		}
		m.terms = append(m.terms, Term{I: k[0], J: k[1], Coeff: c})
	}
	sort.Slice(m.terms, func(i, j int) bool {
		if m.terms[i].I != m.terms[j].I {
			return m.terms[i].I < m.terms[j].I
		}
		return m.terms[i].J < m.terms[j].J
	})
	m.buildRows()
	return m
}

// NewModelFromSortedTerms builds a Model directly from a linear coefficient
// vector and a quadratic term list that is already in CSR order: every term
// has I < J and the (I, J) pairs are strictly lexicographically increasing.
// It is the map- and sort-free construction path used by prepared encodings
// whose term structure is known up front; the result is identical to feeding
// the same coefficients through a Builder (Build drops exact-zero quadratic
// terms, so callers must not pass them). The model takes ownership of both
// slices.
func NewModelFromSortedTerms(linear []float64, terms []Term) *Model {
	n := len(linear)
	prevI, prevJ := -1, -1
	for _, t := range terms {
		if t.I < 0 || t.J >= n || t.I >= t.J {
			panic(fmt.Sprintf("qubo: term (%d,%d) invalid for %d variables", t.I, t.J, n))
		}
		if t.I < prevI || (t.I == prevI && t.J <= prevJ) {
			panic(fmt.Sprintf("qubo: term (%d,%d) out of CSR order after (%d,%d)", t.I, t.J, prevI, prevJ))
		}
		prevI, prevJ = t.I, t.J
	}
	m := &Model{n: n, linear: linear, terms: terms}
	m.buildRows()
	return m
}

// buildRows lays out the adjacency rows of m.terms, which must be sorted:
// one counting pass sizes the rows, and one pass in term order fills them,
// so every row lists its neighbours in ascending order.
func (m *Model) buildRows() {
	if m.n > math.MaxInt32 || 2*len(m.terms) > math.MaxInt32 {
		panic(fmt.Sprintf("qubo: %d variables and %d terms exceed the int32 row layout", m.n, len(m.terms)))
	}
	m.rowStart = make([]int32, m.n+1)
	for _, t := range m.terms {
		m.rowStart[t.I+1]++
		m.rowStart[t.J+1]++
	}
	for i := 0; i < m.n; i++ {
		m.rowStart[i+1] += m.rowStart[i]
	}
	m.nbr = make([]int32, 2*len(m.terms))
	m.coef = make([]float64, 2*len(m.terms))
	cursor := append([]int32(nil), m.rowStart[:m.n]...)
	for _, t := range m.terms {
		p, q := cursor[t.I], cursor[t.J]
		m.nbr[p], m.coef[p] = int32(t.J), t.Coeff
		m.nbr[q], m.coef[q] = int32(t.I), t.Coeff
		cursor[t.I]++
		cursor[t.J]++
	}
}

// Reweight overwrites every coefficient of the model in place, keeping the
// quadratic structure (variable count, term pairs, adjacency) fixed: linear
// must hold NumVariables values and coeffs one value per quadratic term,
// aligned with Terms(). Unlike Builder.Build, zero coefficients are kept —
// the structure is the contract. The caller must ensure no solver is
// concurrently reading the model.
func (m *Model) Reweight(linear []float64, coeffs []float64) {
	if len(linear) != m.n || len(coeffs) != len(m.terms) {
		panic(fmt.Sprintf("qubo: Reweight with %d linears / %d coeffs, model has %d / %d", len(linear), len(coeffs), m.n, len(m.terms)))
	}
	copy(m.linear, linear)
	if m.adjPos == nil {
		m.buildAdjPos()
	}
	for t := range m.terms {
		c := coeffs[t]
		m.terms[t].Coeff = c
		m.coef[m.adjPos[2*t]] = c
		m.coef[m.adjPos[2*t+1]] = c
	}
}

// buildAdjPos records, once, where each term sits in coef, repeating
// buildRows's cursor pass.
func (m *Model) buildAdjPos() {
	m.adjPos = make([]int32, 2*len(m.terms))
	cursor := append([]int32(nil), m.rowStart[:m.n]...)
	for t, term := range m.terms {
		m.adjPos[2*t], m.adjPos[2*t+1] = cursor[term.I], cursor[term.J]
		cursor[term.I]++
		cursor[term.J]++
	}
}

// NumVariables returns the number of binary variables.
func (m *Model) NumVariables() int { return m.n }

// NumTerms returns the number of non-zero quadratic terms.
func (m *Model) NumTerms() int { return len(m.terms) }

// Linear returns the linear coefficient of variable i.
func (m *Model) Linear(i int) float64 { return m.linear[i] }

// Terms returns all quadratic terms, sorted with I < J. The slice is owned
// by the model and must not be modified.
func (m *Model) Terms() []Term { return m.terms }

// Degree returns the number of quadratic terms incident to variable i.
func (m *Model) Degree(i int) int { return int(m.rowStart[i+1] - m.rowStart[i]) }

// Energy evaluates f(x) for the given assignment (len(x) must equal
// NumVariables; entries are 0 or 1).
func (m *Model) Energy(x []int8) float64 {
	if len(x) != m.n {
		panic(fmt.Sprintf("qubo: state length %d, want %d", len(x), m.n))
	}
	var e float64
	for i, c := range m.linear {
		if x[i] != 0 {
			e += c
		}
	}
	for _, t := range m.terms {
		if x[t.I] != 0 && x[t.J] != 0 {
			e += t.Coeff
		}
	}
	return e
}

// MaxAbsCoefficient returns the largest absolute linear or quadratic
// coefficient; solvers use it to scale initial temperatures.
func (m *Model) MaxAbsCoefficient() float64 {
	var mx float64
	for _, c := range m.linear {
		mx = math.Max(mx, math.Abs(c))
	}
	for _, t := range m.terms {
		mx = math.Max(mx, math.Abs(t.Coeff))
	}
	return mx
}

// DeltaRange bounds the magnitude of a single flip's energy change:
// largest is the largest |c_ii| + Σ_j |c_ij| over the variables, smallest
// the smallest non-zero |c|. Each is 1 when the model has no non-zero
// coefficient. The annealers scale their temperature schedules to it.
func (m *Model) DeltaRange() (largest, smallest float64) {
	smallest = math.Inf(1)
	incident := make([]float64, m.n)
	for _, t := range m.terms {
		a := math.Abs(t.Coeff)
		incident[t.I] += a
		incident[t.J] += a
		if a > 0 && a < smallest {
			smallest = a
		}
	}
	for i, c := range m.linear {
		l := math.Abs(c)
		if l > 0 && l < smallest {
			smallest = l
		}
		largest = math.Max(largest, l+incident[i])
	}
	if largest == 0 {
		largest = 1
	}
	if math.IsInf(smallest, 1) {
		smallest = 1
	}
	return largest, smallest
}
