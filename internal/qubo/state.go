package qubo

import "math/rand"

// State is a mutable variable assignment for a Model with an incrementally
// maintained flat delta array: delta[i] = (1−2x_i)·field_i where
// field_i = c_ii + Σ_j c_ij·x_j, i.e. the energy change of flipping
// variable i. Keeping the deltas themselves — rather than the raw local
// fields annealing hardware stores — means the acceptance test is a single
// array read and the annealers' candidate passes are tight loops over one
// contiguous float64 slice: CountBelow counts the accepted candidates and
// PickBelow finds the one a draw selects. A flip updates the array in
// O(degree) with one branch-free signed addition per neighbour, reading the
// flipped variable's adjacency row; FlipCount also counts the next
// parallel-trial step's candidates, in the same loop when the flipped row
// is dense. On amd64 with AVX2 the passes and the dense fused loop run as
// assembly kernels (kernels_amd64.s) that produce the same results as the
// Go loops. This is the data structure behind both the classical SA
// baseline and the Digital Annealer simulator's parallel trial step.
type State struct {
	m *Model
	x []int8
	// xsign[i] = 1−2x_i as a float64 (+1 when x_i = 0, −1 when x_i = 1),
	// kept alongside x so neighbour delta updates multiply instead of
	// branching on the neighbour's bit.
	xsign []float64
	// delta[i] caches DeltaEnergy(i); a flip of i negates delta[i] and
	// adjusts each neighbour j by xsign[i]·c_ij·xsign[j].
	delta  []float64
	energy float64
}

// NewState returns the all-zero state of m (energy 0 by construction, since
// constants are dropped at build time).
func NewState(m *Model) *State {
	s := &State{m: m, x: make([]int8, m.n), xsign: make([]float64, m.n), delta: make([]float64, m.n)}
	for i := range s.xsign {
		s.xsign[i] = 1
	}
	copy(s.delta, m.linear) // x ≡ 0 ⇒ delta[i] = field[i] = linear[i]
	return s
}

// NewRandomState returns a uniformly random state of m drawn from rng.
func NewRandomState(m *Model, rng *rand.Rand) *State {
	s := NewState(m)
	for i := 0; i < m.n; i++ {
		if rng.Intn(2) == 1 {
			s.Flip(i)
		}
	}
	return s
}

// Reset sets every variable of s to the given assignment, recomputing
// deltas and energy from scratch.
func (s *State) Reset(x []int8) {
	if len(x) != s.m.n {
		panic("qubo: reset with wrong state length")
	}
	copy(s.x, x)
	copy(s.delta, s.m.linear)
	for _, t := range s.m.terms {
		if s.x[t.J] != 0 {
			s.delta[t.I] += t.Coeff
		}
		if s.x[t.I] != 0 {
			s.delta[t.J] += t.Coeff
		}
	}
	for i := range s.delta {
		if s.x[i] != 0 {
			s.xsign[i] = -1
			s.delta[i] = -s.delta[i]
		} else {
			s.xsign[i] = 1
		}
	}
	s.energy = s.m.Energy(s.x)
}

// Model returns the model s assigns.
func (s *State) Model() *Model { return s.m }

// Get returns the value of variable i (0 or 1).
func (s *State) Get(i int) int8 { return s.x[i] }

// Assignment returns a copy of the current variable assignment.
func (s *State) Assignment() []int8 {
	out := make([]int8, len(s.x))
	copy(out, s.x)
	return out
}

// Energy returns the current energy f(x), maintained incrementally.
func (s *State) Energy() float64 { return s.energy }

// DeltaEnergy returns the energy change that flipping variable i would
// cause, in O(1) from the maintained delta array.
func (s *State) DeltaEnergy(i int) float64 { return s.delta[i] }

// Deltas exposes the flat per-variable flip deltas. The slice is owned by
// the state and valid only until the next Flip or Reset; callers must not
// modify it. Annealing kernels scan it directly instead of calling
// DeltaEnergy per variable.
func (s *State) Deltas() []float64 { return s.delta }

// CountBelow returns how many variables have a flip delta strictly below
// theta: the number of accepted candidates of the Digital Annealer's
// parallel trial step, in one pass over the delta array with no stores.
func (s *State) CountBelow(theta float64) int {
	return countBelow(s.delta, theta)
}

// PickBelow returns the k-th (from 0) variable, in ascending order, whose
// flip delta is strictly below theta: the candidate a uniform draw
// k < CountBelow(theta) selects. It panics when fewer than k+1 deltas are
// below theta.
func (s *State) PickBelow(theta float64, k int) int {
	i := pickBelow(s.delta, theta, k)
	if i < 0 {
		panic("qubo: PickBelow past the last delta below theta")
	}
	return i
}

// Flip toggles variable i, updating energy and neighbour deltas in
// O(degree(i)).
func (s *State) Flip(i int) {
	d := s.delta[i]
	sign := s.xsign[i]
	s.x[i] ^= 1
	s.xsign[i] = -sign
	s.energy += d
	s.delta[i] = -d
	lo, hi := s.m.rowStart[i], s.m.rowStart[i+1]
	nbr, coef := s.m.nbr[lo:hi], s.m.coef[lo:hi]
	coef = coef[:len(nbr)]
	delta, xsign := s.delta, s.xsign
	for k, j := range nbr {
		// field_j changes by sign·c_ij; delta_j = xsign_j·field_j.
		delta[j] += sign * coef[k] * xsign[j]
	}
}

// FlipCount performs Flip(i) and returns CountBelow(theta) on the flipped
// state. When i's row is dense (coupled to every other variable, as in a
// graph-bisection QUBO) the two are one pass: each neighbour's delta is
// counted as soon as it is updated. A sparse row flips, then counts. Either
// way every delta and the energy end bit-equal to Flip's.
func (s *State) FlipCount(i int, theta float64) int {
	lo, hi := s.m.rowStart[i], s.m.rowStart[i+1]
	if int(hi-lo) != len(s.delta)-1 {
		s.Flip(i)
		return s.CountBelow(theta)
	}
	coef := s.m.coef[lo:hi]
	d := s.delta[i]
	sign := s.xsign[i]
	s.x[i] ^= 1
	s.xsign[i] = -sign
	s.energy += d
	s.delta[i] = -d
	// A dense row lists the neighbours 0..i−1, i+1..n−1 in order, so its
	// halves line up with the variables below and above i.
	count := flipRowCount(s.delta[:i], s.xsign[:i], coef[:i], sign, theta) +
		flipRowCount(s.delta[i+1:], s.xsign[i+1:], coef[i:], sign, theta)
	if -d < theta {
		count++
	}
	return count
}

// countBelowGo returns how many deltas are strictly below theta. It is the
// count wherever the assembly kernel does not run (see countBelow) and the
// reference that kernel is tested against.
func countBelowGo(delta []float64, theta float64) int {
	count := 0
	for _, d := range delta {
		if d < theta {
			count++
		}
	}
	return count
}

// pickBelowGo returns the index of the k-th (from 0) delta strictly below
// theta, or −1 when fewer than k+1 are. Like countBelowGo, it is the kernel
// wherever the assembly does not run (see pickBelow) and its reference.
func pickBelowGo(delta []float64, theta float64, k int) int {
	for i, d := range delta {
		if d < theta {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

// flipRowCountGo applies a flip with the given sign to the consecutive
// variables whose deltas, signs and couplings to the flipped variable are
// delta, xsign and coef, and returns how many of the new deltas are below
// theta. It is the kernel wherever the assembly does not run (see
// flipRowCount) and that kernel's reference.
func flipRowCountGo(delta, xsign, coef []float64, sign, theta float64) int {
	delta, xsign = delta[:len(coef)], xsign[:len(coef)]
	count := 0
	for k, c := range coef {
		// The same float operations as Flip, so the deltas match it bit
		// for bit.
		dk := delta[k] + sign*c*xsign[k]
		delta[k] = dk
		if dk < theta {
			count++
		}
	}
	return count
}

// ClampedSubModel returns the sub-QUBO over the variables of block, in
// block order, with every other variable clamped to its value in s: a
// coupling between a block variable and a clamped variable set to 1 folds
// into the block variable's linear coefficient. For any assignment of the
// block the sub-model's energy differs from the full model's by one
// constant, so a decomposing solver can adopt any sub-model improvement as
// a global one. The linear sums accumulate in term order.
func (s *State) ClampedSubModel(block []int) *Model {
	localOf := make(map[int]int, len(block))
	for li, v := range block {
		localOf[v] = li
	}
	b := NewBuilder(len(block))
	for li, v := range block {
		b.AddLinear(li, s.m.linear[v])
	}
	for _, t := range s.m.terms {
		li, inI := localOf[t.I]
		lj, inJ := localOf[t.J]
		switch {
		case inI && inJ:
			b.AddQuadratic(li, lj, t.Coeff)
		case inI && s.x[t.J] != 0:
			b.AddLinear(li, t.Coeff)
		case inJ && s.x[t.I] != 0:
			b.AddLinear(lj, t.Coeff)
		}
	}
	return b.Build()
}

// Copy returns an independent deep copy of s.
func (s *State) Copy() *State {
	c := &State{
		m:      s.m,
		x:      make([]int8, len(s.x)),
		xsign:  make([]float64, len(s.xsign)),
		delta:  make([]float64, len(s.delta)),
		energy: s.energy,
	}
	copy(c.x, s.x)
	copy(c.xsign, s.xsign)
	copy(c.delta, s.delta)
	return c
}
