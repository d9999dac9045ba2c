package qubo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDeltaArrayMatchesBruteForce drives a state through random flips and
// resets, checking after each mutation that the maintained delta array
// equals the energy difference a full re-evaluation reports.
func TestDeltaArrayMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := randomModel(rng, 24, 0.3)
		st := NewRandomState(m, rng)
		for mut := 0; mut < 40; mut++ {
			if rng.Intn(8) == 0 {
				st.Reset(randomAssignment(rng, m.NumVariables()))
			} else {
				st.Flip(rng.Intn(m.NumVariables()))
			}
			x := st.Assignment()
			base := m.Energy(x)
			deltas := st.Deltas()
			for i := 0; i < m.NumVariables(); i++ {
				x[i] ^= 1
				want := m.Energy(x) - base
				x[i] ^= 1
				if math.Abs(deltas[i]-want) > 1e-9 {
					t.Fatalf("trial %d mut %d: delta[%d] = %v, brute force %v", trial, mut, i, deltas[i], want)
				}
				if got := st.DeltaEnergy(i); got != deltas[i] {
					t.Fatalf("DeltaEnergy(%d) = %v, Deltas()[%d] = %v", i, got, i, deltas[i])
				}
			}
		}
	}
}

// belowNaive is the per-variable reference scan the candidate kernels
// replace: every variable whose flip delta is strictly below theta.
func belowNaive(st *State, theta float64) []int32 {
	var out []int32
	for v := 0; v < st.Model().NumVariables(); v++ {
		if st.DeltaEnergy(v) < theta {
			out = append(out, int32(v))
		}
	}
	return out
}

type namedModel struct {
	name string
	m    *Model
}

// kernelModels returns the row shapes the candidate kernels distinguish:
// a dense model from both constructors, a dense model missing one coupling
// (two sparse rows among dense ones) and a sparse model.
func kernelModels(rng *rand.Rand, n int) []namedModel {
	dense := randomModel(rng, n, 1)
	linear := make([]float64, n)
	for i := range linear {
		linear[i] = dense.Linear(i)
	}
	a, b := rng.Intn(n), rng.Intn(n-1)
	if b >= a {
		b++
	}
	holed := NewBuilder(n)
	for i := range linear {
		holed.AddLinear(i, linear[i])
	}
	for _, t := range dense.Terms() {
		if (t.I != a || t.J != b) && (t.I != b || t.J != a) {
			holed.AddQuadratic(t.I, t.J, t.Coeff)
		}
	}
	return []namedModel{
		{"dense", dense},
		{"dense-sorted", NewModelFromSortedTerms(linear, append([]Term(nil), dense.Terms()...))},
		{"dense-holed", holed.Build()},
		{"sparse", randomModel(rng, n, 0.3)},
	}
}

// pickTheta returns a random threshold, one exactly equal to a delta of
// st, which strict-< selection must exclude, or an infinite, NaN or signed
// zero threshold.
func pickTheta(rng *rand.Rand, st *State) float64 {
	switch rng.Intn(4) {
	case 0:
		return st.DeltaEnergy(rng.Intn(st.Model().NumVariables()))
	case 1:
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		return special[rng.Intn(len(special))]
	}
	return rng.NormFloat64() * 20
}

// checkCountAndPick fails unless CountBelow(theta) on st is the length of
// the naive list want, PickBelow(theta, k) is want[k] for every k, and
// PickBelow panics one past the last candidate.
func checkCountAndPick(t *testing.T, what string, st *State, theta float64, want []int32) bool {
	t.Helper()
	if got := st.CountBelow(theta); got != len(want) {
		t.Errorf("%s: CountBelow(%v) = %d, want %d", what, theta, got, len(want))
		return false
	}
	for k, v := range want {
		if got := st.PickBelow(theta, k); got != int(v) {
			t.Errorf("%s: PickBelow(%v, %d) = %d, want %d", what, theta, k, got, v)
			return false
		}
	}
	if !panics(func() { st.PickBelow(theta, len(want)) }) {
		t.Errorf("%s: PickBelow(%v, %d) past the last candidate did not panic", what, theta, len(want))
		return false
	}
	return true
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestCandidateKernelsMatchNaiveProperty checks the parallel-trial kernels
// against the naive scan: CountBelow returns the length of the strict-<
// list, PickBelow its k-th entry for every k, and FlipCount leaves x, the
// energy and every delta bit-equal to Flip while returning the naive count
// of the flipped state.
func TestCandidateKernelsMatchNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		for _, km := range kernelModels(rng, n) {
			fused := NewRandomState(km.m, rng)
			ref := fused.Copy()
			for step := 0; step < 30; step++ {
				theta := pickTheta(rng, ref)
				if !checkCountAndPick(t, fmt.Sprintf("seed %d %s", seed, km.name), ref, theta, belowNaive(ref, theta)) {
					return false
				}
				i := rng.Intn(n)
				ref.Flip(i)
				theta = pickTheta(rng, ref)
				if got, want := fused.FlipCount(i, theta), len(belowNaive(ref, theta)); got != want {
					t.Errorf("seed %d %s: FlipCount(%d, %v) = %d, want %d", seed, km.name, i, theta, got, want)
					return false
				}
				if math.Float64bits(fused.Energy()) != math.Float64bits(ref.Energy()) {
					t.Errorf("seed %d %s: energy %v after FlipCount, Flip gives %v", seed, km.name, fused.Energy(), ref.Energy())
					return false
				}
				for v := 0; v < n; v++ {
					if fused.Get(v) != ref.Get(v) || math.Float64bits(fused.DeltaEnergy(v)) != math.Float64bits(ref.DeltaEnergy(v)) {
						t.Errorf("seed %d %s: variable %d differs after FlipCount(%d)", seed, km.name, v, i)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCopyCarriesDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomModel(rng, 16, 0.5)
	st := NewRandomState(m, rng)
	c := st.Copy()
	// Mutating the copy must not leak into the original's delta array.
	c.Flip(0)
	for i := 0; i < m.NumVariables(); i++ {
		if st.DeltaEnergy(i) != st.Deltas()[i] {
			t.Fatalf("original delta desynced at %d", i)
		}
	}
	c.Flip(0) // undo
	for i := 0; i < m.NumVariables(); i++ {
		if math.Abs(c.DeltaEnergy(i)-st.DeltaEnergy(i)) > 1e-9 {
			t.Fatalf("copy delta[%d] = %v, original %v", i, c.DeltaEnergy(i), st.DeltaEnergy(i))
		}
	}
}

func TestBestTracker(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomModel(rng, 12, 0.5)
	st := NewRandomState(m, rng)
	var tr BestTracker
	if tr.Seen() {
		t.Fatal("fresh tracker claims an observation")
	}
	if !tr.Observe(st) {
		t.Fatal("first Observe must record")
	}
	wantEnergy := st.Energy()
	wantX := st.Assignment()
	// Walk the state around; the tracker must always hold the minimum seen.
	for i := 0; i < 200; i++ {
		st.Flip(rng.Intn(m.NumVariables()))
		improved := st.Energy() < wantEnergy
		if got := tr.Observe(st); got != improved {
			t.Fatalf("Observe returned %v at energy %v (best %v)", got, st.Energy(), wantEnergy)
		}
		if improved {
			wantEnergy = st.Energy()
			wantX = st.Assignment()
		}
	}
	if tr.Energy() != wantEnergy {
		t.Errorf("tracker energy %v, want %v", tr.Energy(), wantEnergy)
	}
	got := tr.Assignment()
	for i := range wantX {
		if got[i] != wantX[i] {
			t.Fatalf("tracker assignment differs at %d", i)
		}
	}
	// The returned assignment must be a copy, not the reused buffer.
	got[0] ^= 1
	if again := tr.Assignment(); again[0] == got[0] {
		t.Error("Assignment returned the tracker's internal buffer")
	}
	// Incremental energies accumulate float rounding over many flips, so
	// compare against exact re-evaluation with a tolerance.
	if math.Abs(m.Energy(tr.Assignment())-tr.Energy()) > 1e-6 {
		t.Error("tracked energy does not match tracked assignment")
	}
}
