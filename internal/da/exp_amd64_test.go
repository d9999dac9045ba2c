//go:build amd64 && !purego

package da

import (
	"math"
	"math/rand"
	"testing"

	"incranneal/internal/cpu"
)

// FuzzExpBlock checks the AVX-512 Exp block against math.Log on a block
// of raws built around the fuzzed one: the raw itself, its neighbours and
// random draws.
func FuzzExpBlock(f *testing.F) {
	if cpu.Vector < cpu.AVX512 {
		f.Skip("the CPU lacks AVX-512, so the Exp block is math.Log per value")
	}
	for i, v := range append(append([]int64(nil), edgeRaws...), resampling...) {
		f.Add(v, int64(i))
	}
	f.Fuzz(func(t *testing.T, raw, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var block [drawBlock]int64
		for i := range block {
			switch i % 4 {
			case 0:
				block[i] = raw & math.MaxInt64
			case 1:
				block[i] = (raw + int64(rng.Intn(2049)) - 1024) & math.MaxInt64
			default:
				block[i] = rng.Int63()
			}
		}
		var exps [drawBlock]float64
		expBlock512(&exps, &block)
		checkExpBlock(t, "AVX-512", &block, &exps)
	})
}
