package da

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"incranneal/internal/encoding"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

// goldenPartitionModel is a dense ~200-node bisection QUBO: the balance
// term couples every node pair, so every row has n−1 neighbours.
func goldenPartitionModel(t *testing.T) *qubo.Model {
	t.Helper()
	const n = 200
	rng := rand.New(rand.NewSource(20))
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(6))
	}
	var edges []encoding.WeightedEdge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.08 {
				edges = append(edges, encoding.WeightedEdge{U: u, V: v, Weight: 1 + 9*rng.Float64()})
			}
		}
	}
	enc, err := encoding.EncodePartition(weights, edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if d := enc.Model.Degree(i); d != n-1 {
			t.Fatalf("bisection row %d has %d neighbours, want dense %d", i, d, n-1)
		}
	}
	return enc.Model
}

// goldenMQOModel is a sparse MQO encoding of a generated sweep instance.
func goldenMQOModel(t *testing.T) *qubo.Model {
	t.Helper()
	in, err := workload.GenerateSweep(workload.SweepConfig{Queries: 30, PPQ: 4, Communities: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encoding.EncodeMQO(in.Problem)
	if err != nil {
		t.Fatal(err)
	}
	m := enc.Model
	sparse := 0
	for i := 0; i < m.NumVariables(); i++ {
		if m.Degree(i) < m.NumVariables()-1 {
			sparse++
		}
	}
	if sparse == 0 {
		t.Fatal("MQO model has no sparse row")
	}
	return m
}

// fingerprint renders a result bit-exactly: its sweep count, then per
// sample the energy's IEEE-754 bits and an FNV-1a hash of the assignment.
func fingerprint(res *solver.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweeps=%d", res.Sweeps)
	for _, s := range res.Samples {
		h := fnv.New64a()
		for _, v := range s.Assignment {
			h.Write([]byte{byte(v)})
		}
		fmt.Fprintf(&b, " %016x/%016x", math.Float64bits(s.Energy), h.Sum64())
	}
	return b.String()
}

// goldenDA pins the exact output of every annealing mode on a dense and a
// sparse model. The DA kernel may be restructured freely, but any change
// to its RNG draw order, candidate order or float association shows here.
// The models come from the encoders, so a change to their coefficients
// shows here too.
var goldenDA = map[string]string{
	"solve/partition": "sweeps=16000" +
		" c1945703232e8923/fc2ae3db83826385" +
		" c1945701ad4e938f/3bbe8fbdaea99f43" +
		" c19457018d5776fc/fa36396c7a0f3e15" +
		" c194570163d747a6/d84ef011e7ffbcef",
	"solve/mqo": "sweeps=12000" +
		" c09d3058f87a3d69/9e030654c558fd65" +
		" c09cd27aa9e3c2c3/67e9aff8a645980f" +
		" c09c7f064717c641/9b4ed183bd348377" +
		" c09c524c7f581355/bbf39ffc72c9055b",
	"solve/mqo-no-offset": "sweeps=12000" +
		" c09c6988923da8be/4d5b123c592a5d5b" +
		" c09c2635f3a6f0fe/2bf2a2e75021ba57" +
		" c09bb228320be830/7adc08806b524f2f" +
		" c09b94d0d6311347/7f17a12057827057",
	"solve/mqo-warm": "sweeps=12000" +
		" c09d2e0c301c3828/b80468111adef8cf" +
		" c09d154037947cec/797aa3731597bd21" +
		" c09cc09d97496d3b/7aa1e873e4e2dc05" +
		" c09c931eaac997ba/1d10935b45526891",
	"pt/partition": "sweeps=8000" +
		" c1945703453ed3ce/bcb2c3f6b04a4e76" +
		" c19456ff1fbddd5c/82016df3c5cf2018" +
		" c19456fe4e2f7873/e40e6c17f9f35061" +
		" c19456e764f80e06/f48779e2c28baec5" +
		" c19456c2b11b225e/5ab5aa2823a85f0e" +
		" c194555fc26e51ec/89e45d5dcf1fe900" +
		" c1945437c1066fbe/2e99108450eb9699" +
		" c19430c12fcad6f2/8c16ab305b55d9a1" +
		" c19426696fa356c5/e155f426ce3444cf",
	"pt/mqo": "sweeps=8000" +
		" c09d66775b143181/fbec89257521d0dd" +
		" c09cc2171887edd0/71e4b5a4e0ff7235" +
		" c09ba812794d7f56/c4e4aeff6736e6a0" +
		" c09b9f4c6694d4f3/5a8deaad02c7a991" +
		" c09aa398242022bb/aea939798fc72e18" +
		" c09a4cba3cfcec59/341422ef6e62113a" +
		" c0918351bcabacc8/adf20002b8f028e4" +
		" c071f3f27c622240/6d587a23f9335e15" +
		" 40a77ecbf4c02ab2/efd51016fe5cad3d",
}

func TestGoldenBitIdentical(t *testing.T) {
	dense, sparse := goldenPartitionModel(t), goldenMQOModel(t)
	warm := make([]int8, sparse.NumVariables())
	wr := rand.New(rand.NewSource(9))
	for i := range warm {
		warm[i] = int8(wr.Intn(2))
	}
	ctx := context.Background()
	cases := []struct {
		name string
		run  func() (*solver.Result, error)
	}{
		{"solve/partition", func() (*solver.Result, error) {
			return (&Solver{}).Solve(ctx, solver.Request{Model: dense, Runs: 4, Sweeps: 4000, Seed: 31})
		}},
		{"solve/mqo", func() (*solver.Result, error) {
			return (&Solver{}).Solve(ctx, solver.Request{Model: sparse, Runs: 4, Sweeps: 3000, Seed: 32})
		}},
		{"solve/mqo-no-offset", func() (*solver.Result, error) {
			return (&Solver{DisableDynamicOffset: true}).Solve(ctx, solver.Request{Model: sparse, Runs: 4, Sweeps: 3000, Seed: 33})
		}},
		{"solve/mqo-warm", func() (*solver.Result, error) {
			return (&Solver{}).Solve(ctx, solver.Request{Model: sparse, Runs: 4, Sweeps: 3000, Seed: 34, Warm: warm, WarmRuns: 2})
		}},
		{"pt/partition", func() (*solver.Result, error) {
			return (&Solver{}).SolvePT(ctx, solver.Request{Model: dense, Sweeps: 8000, Seed: 35})
		}},
		{"pt/mqo", func() (*solver.Result, error) {
			return (&Solver{}).SolvePT(ctx, solver.Request{Model: sparse, Sweeps: 8000, Seed: 36})
		}},
	}
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := fingerprint(res), goldenDA[c.name]; got != want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
		}
	}
}
