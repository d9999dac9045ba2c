//go:build amd64 && !purego

package qubo

// useAVX2 records, once, whether the CPU and the OS support the AVX2
// candidate kernels: AVX2, POPCNT and saved YMM register state.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reads CPUID and XCR0; implemented in kernels_amd64.s.
func cpuHasAVX2() bool

// collectBelowAVX2 is collectBelowGo for count = 0 with buf holding exactly
// len(delta) entries; it returns the number of indices written.
//
//go:noescape
func collectBelowAVX2(delta []float64, theta float64, base int32, buf []int32) int

// collectBelow is collectBelowGo, in AVX2 when the CPU has it. The
// assembly writes only inside the resliced buf, so a short buffer panics
// here instead.
func collectBelow(delta []float64, theta float64, base int32, buf []int32, count int) int {
	if !useAVX2 {
		return collectBelowGo(delta, theta, base, buf, count)
	}
	return count + collectBelowAVX2(delta, theta, base, buf[count:count+len(delta)])
}

// flipRowCollectAVX2 is flipRowCollectGo for count = 0 with delta, xsign
// and buf exactly as long as coef; it returns the number of indices
// written.
//
//go:noescape
func flipRowCollectAVX2(delta, xsign, coef []float64, sign, theta float64, base int32, buf []int32) int

// flipRowCollect is flipRowCollectGo, in AVX2 when the CPU has it.
func flipRowCollect(delta, xsign, coef []float64, sign, theta float64, base int32, buf []int32, count int) int {
	if !useAVX2 {
		return flipRowCollectGo(delta, xsign, coef, sign, theta, base, buf, count)
	}
	n := len(coef)
	return count + flipRowCollectAVX2(delta[:n], xsign[:n], coef, sign, theta, base, buf[count:count+n])
}
