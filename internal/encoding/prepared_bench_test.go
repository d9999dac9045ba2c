package encoding

import (
	"testing"

	"incranneal/internal/mqo"
)

// benchSub builds the re-encoding benchmark workload: a 64-query × 6-plan
// partial problem (384 variables, the scale of one DA partition) with dense
// savings, wrapped in a SubProblem so costs can be DSS-adjusted between
// encodes exactly like the incremental loop does.
func benchSub(b *testing.B) *mqo.SubProblem {
	b.Helper()
	const queries, ppq = 64, 6
	costs := make([][]float64, queries)
	for q := range costs {
		cs := make([]float64, ppq)
		for i := range cs {
			cs[i] = float64(10 + (q*7+i*3)%17)
		}
		costs[q] = cs
	}
	var savings []mqo.Saving
	for q1 := 0; q1 < queries; q1++ {
		for q2 := q1 + 1; q2 < queries && q2 < q1+8; q2++ {
			for i := 0; i < ppq; i += 2 {
				savings = append(savings, mqo.Saving{
					P1:    q1*ppq + i,
					P2:    q2*ppq + (i+1)%ppq,
					Value: float64(1 + (q1+q2+i)%9),
				})
			}
		}
	}
	p, err := mqo.NewProblem(costs, savings)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, queries)
	for i := range all {
		all[i] = i
	}
	sub, err := mqo.Extract(p, all)
	if err != nil {
		b.Fatal(err)
	}
	return sub
}

// BenchmarkEncodeMQO measures the from-scratch map-backed encode of a
// DSS-adjusted partial problem (encodeMQOBuilder) — the work the incremental
// loop used to repeat for every partial problem after every DSS pass.
func BenchmarkEncodeMQO(b *testing.B) {
	sub := benchSub(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.AdjustCost(i%sub.Local.NumPlans(), 0.001)
		_ = encodeMQOBuilder(sub.Local)
	}
}

// BenchmarkPrepareReweight measures the prepared-skeleton replacement: the
// same re-encode expressed as one in-place reweight of the cached model.
// Coefficients are bit-identical to BenchmarkEncodeMQO's output (pinned by
// TestPrepareMQOMatchesFresh).
func BenchmarkPrepareReweight(b *testing.B) {
	sub := benchSub(b)
	pp, err := PrepareMQO(sub.Local)
	if err != nil {
		b.Fatal(err)
	}
	pp.Encoding() // first materialisation allocates the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.AdjustCost(i%sub.Local.NumPlans(), 0.001)
		_ = pp.Encoding()
	}
}

// BenchmarkPrepareMQO measures the one-time skeleton construction, paid once
// per partial problem for the whole incremental phase.
func BenchmarkPrepareMQO(b *testing.B) {
	sub := benchSub(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrepareMQO(sub.Local); err != nil {
			b.Fatal(err)
		}
	}
}
