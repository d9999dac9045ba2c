//go:build amd64 && !purego

package da

import "incranneal/internal/cpu"

// expBlock512 is expBlockGo in AVX-512 (exp_amd64.s). It repeats
// math.Log's amd64 assembly operation for operation, so every slot a chain
// reads equals expBlockGo's bit for bit.
//
//go:noescape
func expBlock512(exps *[drawBlock]float64, raw *[drawBlock]int64)

func expBlock(exps *[drawBlock]float64, raw *[drawBlock]int64) {
	if cpu.Vector >= cpu.AVX512 {
		expBlock512(exps, raw)
		return
	}
	expBlockGo(exps, raw)
}
