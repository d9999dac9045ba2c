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
// loops they replace: the same count, the same indices and, for the flip,
// deltas equal bit for bit. Any NaN delta matches any NaN: Go leaves NaN
// payloads unspecified, and the Go loop's follow the operand order its
// compilation picks, which differs under -race. raw holds the kernels'
// float64 inputs as little-endian bits, three per variable: its delta, its
// coupling to the flipped variable and its sign. The kernels run through
// their Go wrappers on buffers with guard entries, which must stay
// untouched.
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
	for n := 1; n <= 9; n++ {
		v := row(n, false)
		// θ equal to a delta, which strict < must exclude.
		f.Add(encodeFloats(v), v[3*rng.Intn(n)], -1.0, int32(n), uint16(n%3))
		f.Add(encodeFloats(row(n, true)), rng.NormFloat64()*10, rng.NormFloat64(), int32(0), uint16(0))
	}
	long, wide := row(703, false), row(703, true)
	f.Add(encodeFloats(long), 0.0, 1.0, int32(5), uint16(17))
	f.Add(encodeFloats(long), long[3*350], -1.0, int32(1000), uint16(2))
	f.Add(encodeFloats(long), math.NaN(), -1.0, int32(0), uint16(3))
	f.Add(encodeFloats(wide), math.Inf(1), 0.3, int32(7), uint16(0))
	f.Add(encodeFloats(wide), 1.0, math.NaN(), int32(0), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, theta, sign float64, base int32, count uint16) {
		v := decodeFloats(raw)
		n := len(v) / 3
		delta, coef, xsign := make([]float64, n), make([]float64, n), make([]float64, n)
		for k := 0; k < n; k++ {
			delta[k], coef[k], xsign[k] = v[3*k], v[3*k+1], v[3*k+2]
		}
		c := int(count)

		want, got := guardedBuf(c+n), guardedBuf(c+n)
		wc := collectBelowGo(delta, theta, base, want, c)
		gc := collectBelow(delta, theta, base, got[:c+n], c)
		checkCandidates(t, "collectBelow", want[:wc], got, gc, c+n)

		// The flip gets a delta array with guard entries after it too.
		wantDelta := slices.Clone(delta)
		gotDelta := append(slices.Clone(delta), math.MaxFloat64, math.MaxFloat64)
		want, got = guardedBuf(c+n), guardedBuf(c+n)
		wc = flipRowCollectGo(wantDelta, xsign, coef, sign, theta, base, want, c)
		gc = flipRowCollect(gotDelta[:n], xsign, coef, sign, theta, base, got[:c+n], c)
		checkCandidates(t, "flipRowCollect", want[:wc], got, gc, c+n)
		for k := 0; k < n; k++ {
			g, w := gotDelta[k], wantDelta[k]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("flipRowCollect: AVX2 delta[%d] = %v (%#x), Go %v (%#x)", k, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		for k := n; k < len(gotDelta); k++ {
			if gotDelta[k] != math.MaxFloat64 {
				t.Fatalf("flipRowCollect wrote delta[%d] past its %d entries", k, n)
			}
		}
	})
}

// checkCandidates fails unless the AVX2 kernel's gc kept indices in got
// equal the Go loop's and the guard entries after got[:size] are intact.
func checkCandidates(t *testing.T, kernel string, want, got []int32, gc, size int) {
	t.Helper()
	if gc > size || !slices.Equal(got[:gc], want) {
		t.Fatalf("%s: AVX2 kept %d indices %v, Go kept %v", kernel, gc, got[:min(gc, size)], want)
	}
	for i := size; i < len(got); i++ {
		if got[i] != guard {
			t.Fatalf("%s wrote buf[%d] past its %d entries", kernel, i, size)
		}
	}
}

// guard marks the int32 entries no kernel may write.
const guard = math.MinInt32

// guardedBuf returns an index buffer of n entries followed by 4 guard
// entries, every entry set to guard.
func guardedBuf(n int) []int32 {
	buf := make([]int32, n+4)
	for i := range buf {
		buf[i] = guard
	}
	return buf
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
