//go:build amd64 && !purego

package qubo

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"incranneal/internal/cpu"
)

// candidateKernels is one level's candidate kernels, each called as its
// Go wrapper would call it.
type candidateKernels struct {
	level        string
	countBelow   func(delta []float64, theta float64) int
	pickBelow    func(delta []float64, theta float64, k int) int
	flipRowCount func(delta, xsign, coef []float64, sign, theta float64) int
	// flipSparse is nil at a level without a sparse flip kernel.
	flipSparse func(delta, xsign []float64, nbr []int32, coef []float64, sign float64)
}

var (
	avx2Kernels = candidateKernels{"AVX2", countBelowAVX2, pickBelowAVX2,
		func(delta, xsign, coef []float64, sign, theta float64) int {
			n := len(coef)
			return flipRowCountAVX2(delta[:n], xsign[:n], coef, sign, theta)
		}, nil}
	avx512Kernels = candidateKernels{"AVX-512", countBelow512, pickBelow512,
		func(delta, xsign, coef []float64, sign, theta float64) int {
			n := len(coef)
			return flipRowCount512(delta[:n], xsign[:n], coef, sign, theta)
		},
		func(delta, xsign []float64, nbr []int32, coef []float64, sign float64) {
			flipSparse512(delta, xsign, nbr, coef[:len(nbr)], sign)
		}}
)

// FuzzCandidateKernels checks the AVX2 candidate kernels against the Go
// loops they stand in for (see checkCandidateKernels).
func FuzzCandidateKernels(f *testing.F) {
	if cpu.Vector < cpu.AVX2 {
		f.Skip("the CPU lacks AVX2, so the Go loops are the only candidate kernels")
	}
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, theta, sign float64, k int) {
		checkCandidateKernels(t, avx2Kernels, raw, theta, sign, k)
	})
}

// FuzzCandidateKernels512 checks the AVX-512 candidate kernels against the
// Go loops over the same inputs as FuzzCandidateKernels.
func FuzzCandidateKernels512(f *testing.F) {
	if cpu.Vector < cpu.AVX512 {
		f.Skip("the CPU lacks AVX-512, so its kernels never run here")
	}
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, theta, sign float64, k int) {
		checkCandidateKernels(t, avx512Kernels, raw, theta, sign, k)
	})
}

// addKernelSeeds seeds a candidate-kernel fuzz target. raw holds the
// kernels' float64 inputs as little-endian bits, three per variable: its
// delta, its coupling to the flipped variable and its sign.
func addKernelSeeds(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	// row draws n variables; about every fourth delta is special. A solve
	// flips with signs ±1, which keep every product exact; in a wide row
	// the signs are arbitrary floats, so the products round and a fused
	// multiply-add would change the sums, and some couplings are special.
	row := func(n int, wide bool) []float64 {
		v := make([]float64, 3*n)
		for k := 0; k < n; k++ {
			v[3*k] = rng.NormFloat64() * 10
			v[3*k+1] = rng.NormFloat64() * 10
			v[3*k+2] = float64(1 - 2*rng.Intn(2))
			if rng.Intn(4) == 0 {
				v[3*k] = special[rng.Intn(len(special))]
			}
			if wide {
				v[3*k+2] = rng.NormFloat64()
				if rng.Intn(4) == 0 {
					v[3*k+1] = special[rng.Intn(len(special))]
				}
			}
		}
		return v
	}
	// Every length up to 40 splits differently into blocks, groups and a
	// scalar tail, at either level.
	for n := 0; n <= 40; n++ {
		v := row(n, false)
		theta := special[rng.Intn(len(special))]
		if n > 0 {
			// θ equal to a delta, which strict < must exclude.
			theta = v[3*rng.Intn(n)]
		}
		f.Add(encodeFloats(v), theta, -1.0, n/2)
		f.Add(encodeFloats(row(n, true)), rng.NormFloat64()*10, rng.NormFloat64(), rng.Intn(n+1))
	}
	long, wide := row(703, false), row(703, true)
	f.Add(encodeFloats(long), 0.0, 1.0, 17)
	f.Add(encodeFloats(long), long[3*350], -1.0, 1000)
	f.Add(encodeFloats(long), math.NaN(), -1.0, 3)
	f.Add(encodeFloats(long), math.Inf(-1), 1.0, 0)
	f.Add(encodeFloats(wide), math.Inf(1), 0.3, -1)
	f.Add(encodeFloats(wide), 1.0, math.NaN(), 350)
}

// checkCandidateKernels checks one level's kernels against the Go loops:
// the same count, the same pick for the fuzzed k and the naive one for
// every k up to one past the last candidate, for the dense flip the same
// count and deltas equal bit for bit, and for the sparse flip equal
// deltas. The sparse row holds every variable but one, the flipped
// variable k mod n, shuffled by k: all distinct, as a Model's rows are. Any NaN delta matches any NaN: Go
// leaves NaN payloads unspecified, and the Go loop's follow the operand
// order its compilation picks, which differs under -race. The kernels run
// on slices of arrays with guard entries on both sides: the guards are
// −Inf, below every threshold but −Inf and NaN, so a kernel that read one
// would count it, and none may be written.
func checkCandidateKernels(t *testing.T, kern candidateKernels, raw []byte, theta, sign float64, k int) {
	v := decodeFloats(raw)
	n := len(v) / 3
	bufs := [][]float64{guarded(n), guarded(n), guarded(n)}
	delta, coef, xsign := inner(bufs[0], n), inner(bufs[1], n), inner(bufs[2], n)
	for j := 0; j < n; j++ {
		delta[j], coef[j], xsign[j] = v[3*j], v[3*j+1], v[3*j+2]
	}

	want := countBelowGo(delta, theta)
	if got := kern.countBelow(delta, theta); got != want {
		t.Fatalf("countBelow(%v): %s %d, Go %d", theta, kern.level, got, want)
	}
	// The picks of every k are checked against one list of the
	// candidates, so a long input costs one kernel pass per candidate
	// and not one Go loop too.
	var below []int
	for j, d := range delta {
		if d < theta {
			below = append(below, j)
		}
	}
	for j := 0; j <= len(below); j++ {
		w := -1
		if j < len(below) {
			w = below[j]
		}
		if got := kern.pickBelow(delta, theta, j); got != w {
			t.Fatalf("pickBelow(%v, %d): %s %d, want %d", theta, j, kern.level, got, w)
		}
	}
	if got, w := kern.pickBelow(delta, theta, k), pickBelowGo(delta, theta, k); got != w {
		t.Fatalf("pickBelow(%v, %d): %s %d, Go %d", theta, k, kern.level, got, w)
	}

	if kern.flipSparse != nil && n > 0 {
		var nbr []int32
		flipped := (k%n + n) % n
		for _, j := range rand.New(rand.NewSource(int64(k))).Perm(n) {
			if j != flipped {
				nbr = append(nbr, int32(j))
			}
		}
		row := make([]float64, len(nbr))
		for t, j := range nbr {
			row[t] = coef[j]
		}
		sparse := guarded(n)
		got := inner(sparse, n)
		copy(got, delta)
		wantDelta := slices.Clone(delta)
		flipSparseGo(wantDelta, xsign, nbr, row, sign)
		kern.flipSparse(got, xsign, nbr, row, sign)
		checkDeltas(t, "flipSparse", kern.level, got, wantDelta)
		checkGuards(t, sparse, n)
	}

	wantDelta := slices.Clone(delta)
	want = flipRowCountGo(wantDelta, xsign, coef, sign, theta)
	if got := kern.flipRowCount(delta, xsign, coef, sign, theta); got != want {
		t.Fatalf("flipRowCount(%v, %v): %s %d, Go %d", sign, theta, kern.level, got, want)
	}
	checkDeltas(t, "flipRowCount", kern.level, delta, wantDelta)
	for _, buf := range bufs {
		checkGuards(t, buf, n)
	}
}

// checkDeltas fails unless a kernel's deltas equal the Go loop's bit for
// bit, any NaN matching any NaN.
func checkDeltas(t *testing.T, kernel, level string, got, want []float64) {
	t.Helper()
	for j := range want {
		g, w := got[j], want[j]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: %s delta[%d] = %v (%#x), Go %v (%#x)", kernel, level, j, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// guardEntries is how many guard entries guarded puts on each side.
const guardEntries = 4

// guarded returns an array of n entries with guardEntries guard entries on
// each side, every entry −Inf.
func guarded(n int) []float64 {
	buf := make([]float64, n+2*guardEntries)
	for i := range buf {
		buf[i] = math.Inf(-1)
	}
	return buf
}

// inner returns the n entries of a guarded array between its guards.
func inner(buf []float64, n int) []float64 {
	return buf[guardEntries : guardEntries+n : guardEntries+n]
}

// checkGuards fails unless the guard entries of a guarded array of n
// entries are intact.
func checkGuards(t *testing.T, buf []float64, n int) {
	t.Helper()
	for i, g := range buf {
		if (i < guardEntries || i >= guardEntries+n) && !math.IsInf(g, -1) {
			t.Fatalf("a kernel wrote guard entry %d around %d entries", i, n)
		}
	}
}

func encodeFloats(v []float64) []byte {
	raw := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(x))
	}
	return raw
}

func decodeFloats(raw []byte) []float64 {
	v := make([]float64, len(raw)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return v
}
