package qubo

import "math/rand"

// State is a mutable variable assignment for a Model with an incrementally
// maintained flat delta array: delta[i] = (1−2x_i)·field_i where
// field_i = c_ii + Σ_j c_ij·x_j, i.e. the energy change of flipping
// variable i. Keeping the deltas themselves — rather than the raw local
// fields annealing hardware stores — means the acceptance test is a single
// array read and the annealers' candidate scan is a tight loop over one
// contiguous float64 slice (CollectBelow). A flip updates the array in
// O(degree) with one branch-free signed addition per neighbour, reading the
// flipped variable's adjacency row; FlipCollect also gathers the next
// parallel-trial step's candidates, in the same loop when the flipped row
// is dense. On amd64 with AVX2 the scan and the dense fused loop run as
// assembly kernels (kernels_amd64.s) that produce the same bits as the Go
// loops. This is the data structure behind both the classical SA baseline
// and the Digital Annealer simulator's parallel trial step.
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

// CollectBelow writes the ascending indices of the variables whose flip
// delta is strictly below theta into buf and returns their count: the
// accepted candidates of the Digital Annealer's parallel trial step, in one
// tight pass over the delta array. buf must hold NumVariables entries.
func (s *State) CollectBelow(theta float64, buf []int32) int {
	return collectBelow(s.delta, theta, 0, buf, 0)
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

// FlipCollect performs Flip(i) and returns CollectBelow(theta, buf) on the
// flipped state. When i's row is dense (coupled to every other variable,
// as in a graph-bisection QUBO) the two are one pass: each neighbour's
// delta is collected as soon as it is updated. A sparse row flips, then
// collects. Either way every delta and the energy end bit-equal to Flip's.
func (s *State) FlipCollect(i int, theta float64, buf []int32) int {
	lo, hi := s.m.rowStart[i], s.m.rowStart[i+1]
	if int(hi-lo) != len(s.delta)-1 {
		s.Flip(i)
		return s.CollectBelow(theta, buf)
	}
	coef := s.m.coef[lo:hi]
	d := s.delta[i]
	sign := s.xsign[i]
	s.x[i] ^= 1
	s.xsign[i] = -sign
	s.energy += d
	// A dense row lists the neighbours 0..i−1, i+1..n−1 in order, so its
	// halves reach the variables below and above i in ascending order, and
	// i's own delta is collected between them.
	count := flipRowCollect(s.delta[:i], s.xsign[:i], coef[:i], sign, theta, 0, buf, 0)
	s.delta[i] = -d
	buf[count] = int32(i)
	if -d < theta {
		count++
	}
	return flipRowCollect(s.delta[i+1:], s.xsign[i+1:], coef[i:], sign, theta, int32(i+1), buf, count)
}

// collectBelowGo appends to buf[:count] the indices base+k of the deltas
// delta[k] strictly below theta, in ascending order, and returns the new
// count. buf must hold count+len(delta) entries. It is the candidate scan
// wherever the assembly kernel does not run (see collectBelow) and the
// reference that kernel is tested against.
func collectBelowGo(delta []float64, theta float64, base int32, buf []int32, count int) int {
	buf = buf[:count+len(delta)]
	for k, d := range delta {
		// Write every index and keep it only when accepted: the loop has
		// no data-dependent branch.
		buf[count] = base + int32(k)
		if d < theta {
			count++
		}
	}
	return count
}

// flipRowCollectGo applies a flip with the given sign to the consecutive
// variables base, base+1, … whose deltas, signs and couplings to the
// flipped variable are delta, xsign and coef, and appends those whose new
// delta is below theta to buf[:count]. It returns the new count. Like
// collectBelowGo, it is the kernel wherever the assembly does not run (see
// flipRowCollect) and that kernel's reference.
func flipRowCollectGo(delta, xsign, coef []float64, sign, theta float64, base int32, buf []int32, count int) int {
	delta, xsign = delta[:len(coef)], xsign[:len(coef)]
	for k, c := range coef {
		// The same float operations as Flip, so the deltas match it bit
		// for bit.
		dk := delta[k] + sign*c*xsign[k]
		delta[k] = dk
		buf[count] = base + int32(k)
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
