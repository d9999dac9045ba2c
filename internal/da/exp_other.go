//go:build !amd64 || purego

package da

func expBlock(exps *[drawBlock]float64, raw *[drawBlock]int64) {
	expBlockGo(exps, raw)
}
