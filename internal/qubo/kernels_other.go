//go:build !amd64 || purego

package qubo

// Without the amd64 assembly the candidate kernels are the Go loops.

func countBelow(delta []float64, theta float64) int {
	return countBelowGo(delta, theta)
}

func pickBelow(delta []float64, theta float64, k int) int {
	return pickBelowGo(delta, theta, k)
}

func flipRowCount(delta, xsign, coef []float64, sign, theta float64) int {
	return flipRowCountGo(delta, xsign, coef, sign, theta)
}

func flipSparse(delta, xsign []float64, nbr []int32, coef []float64, sign float64) {
	flipSparseGo(delta, xsign, nbr, coef, sign)
}
