//go:build amd64 && !purego

package qubo

import "incranneal/internal/cpu"

// Each kernel below runs at the highest level cpu.Vector allows: AVX-512,
// then AVX2, then its Go loop in state.go.

// countBelowAVX2 is countBelowGo.
//
//go:noescape
func countBelowAVX2(delta []float64, theta float64) int

// countBelow512 is countBelowGo.
//
//go:noescape
func countBelow512(delta []float64, theta float64) int

func countBelow(delta []float64, theta float64) int {
	switch {
	case cpu.Vector >= cpu.AVX512:
		return countBelow512(delta, theta)
	case cpu.Vector >= cpu.AVX2:
		return countBelowAVX2(delta, theta)
	}
	return countBelowGo(delta, theta)
}

// pickBelowAVX2 is pickBelowGo.
//
//go:noescape
func pickBelowAVX2(delta []float64, theta float64, k int) int

// pickBelow512 is pickBelowGo.
//
//go:noescape
func pickBelow512(delta []float64, theta float64, k int) int

func pickBelow(delta []float64, theta float64, k int) int {
	switch {
	case cpu.Vector >= cpu.AVX512:
		return pickBelow512(delta, theta, k)
	case cpu.Vector >= cpu.AVX2:
		return pickBelowAVX2(delta, theta, k)
	}
	return pickBelowGo(delta, theta, k)
}

// flipRowCountAVX2 is flipRowCountGo with delta and xsign exactly as long
// as coef.
//
//go:noescape
func flipRowCountAVX2(delta, xsign, coef []float64, sign, theta float64) int

// flipRowCount512 is flipRowCountGo with delta and xsign exactly as long
// as coef.
//
//go:noescape
func flipRowCount512(delta, xsign, coef []float64, sign, theta float64) int

// flipRowCount reslices delta and xsign to coef's length, so short ones
// panic here: the assembly reads only inside them.
func flipRowCount(delta, xsign, coef []float64, sign, theta float64) int {
	n := len(coef)
	switch {
	case cpu.Vector >= cpu.AVX512:
		return flipRowCount512(delta[:n], xsign[:n], coef, sign, theta)
	case cpu.Vector >= cpu.AVX2:
		return flipRowCountAVX2(delta[:n], xsign[:n], coef, sign, theta)
	}
	return flipRowCountGo(delta, xsign, coef, sign, theta)
}

// flipSparse512 is flipSparseGo with coef exactly as long as nbr. It
// gathers and scatters by nbr without bounds checks, so every entry of nbr
// must index delta and xsign, and no two may be equal: each group of eight
// is read before any of it is written.
//
//go:noescape
func flipSparse512(delta, xsign []float64, nbr []int32, coef []float64, sign float64)

// flipSparse reslices coef to nbr's length, so a short one panics here. A
// Model's rows satisfy flipSparse512's contract by construction
// (TestRowsListEachNeighbourOnce); the AVX2 level has no sparse kernel.
func flipSparse(delta, xsign []float64, nbr []int32, coef []float64, sign float64) {
	if cpu.Vector >= cpu.AVX512 {
		flipSparse512(delta, xsign, nbr, coef[:len(nbr)], sign)
		return
	}
	flipSparseGo(delta, xsign, nbr, coef, sign)
}
