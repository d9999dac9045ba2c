package partition

import (
	"context"
	"reflect"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/workload"
)

// TestSplitMatchesPartition pins that Split over an MQO problem's graph is
// Partition's own recursion: the same query sets, in the same order, on
// several instances and capacities, including a capacity below the
// heaviest query.
func TestSplitMatchesPartition(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in, err := workload.GenerateSweep(workload.SweepConfig{
			Queries: 36, PPQ: 3, Communities: 3, DensityLow: 0.05, DensityHigh: 0.8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := in.Problem
		for _, capacity := range []int{2, 20, 45, 200} {
			opt := Options{Capacity: capacity, Solver: &da.Solver{}, Runs: 2, Sweeps: 20 * p.NumPlans(), Seed: seed}
			want, err := Partition(context.Background(), p, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Split(context.Background(), BuildGraph(p), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want.QuerySets) {
				t.Errorf("seed %d capacity %d: Split gave\n%v\nPartition gave\n%v", seed, capacity, got, want.QuerySets)
			}
		}
	}
	if _, err := Split(context.Background(), BuildGraph(mqo.PaperExample()), Options{}); err == nil {
		t.Error("Split accepted zero capacity")
	}
}
