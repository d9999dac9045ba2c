//go:build amd64 && !purego

package qubo

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzCandidateKernels checks the AVX2 candidate kernels against the Go
// loops they stand in for: the same count, the same pick for the fuzzed k
// and the naive one for every k up to one past the last candidate, and,
// for the flip, the same count and deltas equal bit for bit. Any NaN delta matches any NaN: Go leaves NaN
// payloads unspecified, and the Go loop's follow the operand order its
// compilation picks, which differs under -race. raw holds the kernels'
// float64 inputs as little-endian bits, three per variable: its delta, its
// coupling to the flipped variable and its sign. The kernels run through
// their Go wrappers on slices of arrays with guard entries on both sides:
// the guards are −Inf, below every threshold but −Inf and NaN, so a kernel
// that read one would count it, and none may be written.
func FuzzCandidateKernels(f *testing.F) {
	if !useAVX2 {
		f.Skip("the CPU lacks AVX2, so the Go loops are the only candidate kernels")
	}
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
	// Every length up to 40 splits differently into blocks of sixteen,
	// groups of four and a scalar tail.
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
	f.Fuzz(func(t *testing.T, raw []byte, theta, sign float64, k int) {
		v := decodeFloats(raw)
		n := len(v) / 3
		bufs := [][]float64{guarded(n), guarded(n), guarded(n)}
		delta, coef, xsign := inner(bufs[0], n), inner(bufs[1], n), inner(bufs[2], n)
		for j := 0; j < n; j++ {
			delta[j], coef[j], xsign[j] = v[3*j], v[3*j+1], v[3*j+2]
		}

		want := countBelowGo(delta, theta)
		if got := countBelow(delta, theta); got != want {
			t.Fatalf("countBelow(%v): AVX2 %d, Go %d", theta, got, want)
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
			if got := pickBelow(delta, theta, j); got != w {
				t.Fatalf("pickBelow(%v, %d): AVX2 %d, want %d", theta, j, got, w)
			}
		}
		if got, w := pickBelow(delta, theta, k), pickBelowGo(delta, theta, k); got != w {
			t.Fatalf("pickBelow(%v, %d): AVX2 %d, Go %d", theta, k, got, w)
		}

		wantDelta := slices.Clone(delta)
		want = flipRowCountGo(wantDelta, xsign, coef, sign, theta)
		if got := flipRowCount(delta, xsign, coef, sign, theta); got != want {
			t.Fatalf("flipRowCount(%v, %v): AVX2 %d, Go %d", sign, theta, got, want)
		}
		for j := 0; j < n; j++ {
			g, w := delta[j], wantDelta[j]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("flipRowCount: AVX2 delta[%d] = %v (%#x), Go %v (%#x)", j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		for _, buf := range bufs {
			checkGuards(t, buf, n)
		}
	})
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
