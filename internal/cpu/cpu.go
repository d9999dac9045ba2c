// Package cpu probes, once, which vector kernels this processor runs. The
// candidate kernels of internal/qubo and the Exp(1) block of internal/da
// dispatch on the one level it reports, so the two packages cannot
// disagree about the CPU.
package cpu

// Level is a vector instruction level the amd64 kernels are written for.
// Each level includes the ones below it.
type Level int

const (
	// Scalar runs the Go loops.
	Scalar Level = iota
	// AVX2 runs the AVX2 kernels: AVX2 and POPCNT, with the YMM state
	// saved by the OS.
	AVX2
	// AVX512 runs the AVX-512 kernels: AVX-512 F, DQ, BW and VL, BMI1 and
	// BMI2, with the opmask and ZMM state saved by the OS.
	AVX512
)

// Vector is the highest level the kernels use. It starts as the level this
// CPU and OS support, which is Scalar off amd64 and under the purego build
// tag. Kernel tests and benchmarks lower it through Each; nothing else
// writes it.
var Vector = probe()

// String names the level as the kernel benchmarks label their cases.
func (l Level) String() string {
	switch l {
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	}
	return "go"
}

// Each calls f once for every level from Scalar up to Vector, with Vector
// lowered to that level, and then restores it: a test or benchmark runs
// every kernel this CPU has through it. It must not run concurrently with
// anything that reads Vector.
func Each(f func(Level)) {
	top := Vector
	defer func() { Vector = top }()
	for l := Scalar; l <= top; l++ {
		Vector = l
		f(l)
	}
}
