//go:build !amd64 || purego

package qubo

// Without the amd64 assembly the candidate kernels are the Go loops.

func collectBelow(delta []float64, theta float64, base int32, buf []int32, count int) int {
	return collectBelowGo(delta, theta, base, buf, count)
}

func flipRowCollect(delta, xsign, coef []float64, sign, theta float64, base int32, buf []int32, count int) int {
	return flipRowCollectGo(delta, xsign, coef, sign, theta, base, buf, count)
}
