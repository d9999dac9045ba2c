package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"incranneal/internal/mqo"
)

// TestGeneratorDigests pins every instance GenerateSweep and
// GenerateDAGSweep draw over a grid of shapes that reaches binomial's
// exact and approximate draws and samplePairs' shuffle and rejection
// draws: a change to the savings sampler's rng stream shows here even
// when the instances still look plausible.
func TestGeneratorDigests(t *testing.T) {
	digest := func(p *mqo.Problem) uint64 {
		h := fnv.New64a()
		h.Write([]byte(p.Name))
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for pl := 0; pl < p.NumPlans(); pl++ {
			word(math.Float64bits(p.Cost(pl)))
		}
		for _, s := range p.Savings() {
			word(uint64(s.P1))
			word(uint64(s.P2))
			word(math.Float64bits(s.Value))
		}
		return h.Sum64()
	}
	sweeps := []SweepConfig{
		{Queries: 24, PPQ: 3},
		{Queries: 40, PPQ: 4, Communities: 4},
		{Queries: 40, PPQ: 4, Communities: 4, EqualCommunities: true, DensityLow: 0.05, DensityHigh: 0.8},
		{Queries: 32, PPQ: 9, Communities: 3, CrossDensity: 0.1},
	}
	dags := []DAGSweepConfig{
		{Queries: 24, PPQ: 3, Communities: 4},
		{Queries: 30, PPQ: 4, Communities: 5, IntraDensity: 0.6, CommunityPairs: [][2]int{{0, 1}, {1, 3}, {2, 4}}},
		{Queries: 32, PPQ: 9, Communities: 4},
	}
	h := fnv.New64a()
	var buf [8]byte
	for seed := int64(1); seed <= 8; seed++ {
		for _, cfg := range sweeps {
			cfg.Seed = seed
			in, err := GenerateSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(buf[:], digest(in.Problem))
			h.Write(buf[:])
		}
		for _, cfg := range dags {
			cfg.Seed = seed
			in, err := GenerateDAGSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(buf[:], digest(in.Problem))
			h.Write(buf[:])
		}
	}
	const want = 0x63c5882273df281e
	if got := h.Sum64(); got != want {
		t.Errorf("generator digest %#016x, want %#016x", got, uint64(want))
	}
}
