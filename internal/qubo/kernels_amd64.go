//go:build amd64 && !purego

package qubo

// useAVX2 records, once, whether the CPU and the OS support the AVX2
// candidate kernels: AVX2, POPCNT and saved YMM register state.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reads CPUID and XCR0; implemented in kernels_amd64.s.
func cpuHasAVX2() bool

// countBelowAVX2 is countBelowGo.
//
//go:noescape
func countBelowAVX2(delta []float64, theta float64) int

// countBelow is countBelowGo, in AVX2 when the CPU has it.
func countBelow(delta []float64, theta float64) int {
	if !useAVX2 {
		return countBelowGo(delta, theta)
	}
	return countBelowAVX2(delta, theta)
}

// pickBelowAVX2 is pickBelowGo.
//
//go:noescape
func pickBelowAVX2(delta []float64, theta float64, k int) int

// pickBelow is pickBelowGo, in AVX2 when the CPU has it.
func pickBelow(delta []float64, theta float64, k int) int {
	if !useAVX2 {
		return pickBelowGo(delta, theta, k)
	}
	return pickBelowAVX2(delta, theta, k)
}

// flipRowCountAVX2 is flipRowCountGo with delta and xsign exactly as long
// as coef.
//
//go:noescape
func flipRowCountAVX2(delta, xsign, coef []float64, sign, theta float64) int

// flipRowCount is flipRowCountGo, in AVX2 when the CPU has it. The
// assembly reads only inside the resliced delta and xsign, so short ones
// panic here instead.
func flipRowCount(delta, xsign, coef []float64, sign, theta float64) int {
	if !useAVX2 {
		return flipRowCountGo(delta, xsign, coef, sign, theta)
	}
	n := len(coef)
	return flipRowCountAVX2(delta[:n], xsign[:n], coef, sign, theta)
}
