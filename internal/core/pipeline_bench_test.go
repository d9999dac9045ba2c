package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"incranneal/internal/da"
	"incranneal/internal/faultinject"
	"incranneal/internal/workload"
)

// BenchmarkIncrementalPipeline measures the end-to-end incremental solve
// (partitioning, encoding, annealing, DSS, decoding) on a 384-variable
// community instance split across four DA partitions — the macro benchmark
// of EXPERIMENTS.md's "Encoding benchmarks".
func BenchmarkIncrementalPipeline(b *testing.B) {
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 96, PPQ: 4, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.6, Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{
		Device:      &da.Solver{CapacityVars: 96},
		Capacity:    96,
		Runs:        4,
		TotalSweeps: 4000,
		Seed:        7,
		Parallelism: -1,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveIncremental(ctx, in.Problem, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalDAG measures the incremental phase alone (partitions
// pre-extracted) at 2, 8 and 32 partial problems on stride-topology DAG
// instances: the one-worker chain (seq, Parallelism -1) vs. the wave
// schedule with a worker budget (dag). Results are bit-identical between
// the two; only the execution order moves. On a single core the CPU-bound
// variant is cost-neutral; the latency variant models a remote annealing
// service (2ms round-trip per solve, the regime the wave schedule targets)
// where independent partial problems overlap their round-trips.
func BenchmarkIncrementalDAG(b *testing.B) {
	for _, subs := range []int{2, 8, 32} {
		in, err := workload.GenerateDAGSweep(workload.DAGSweepConfig{
			Queries: 4 * subs, PPQ: 3, Communities: subs,
			IntraDensity: 0.4, CrossDensity: 0.25, Seed: 99,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			// latencyWorkers is the worker budget of the latency variant;
			// the CPU-bound variant always runs on one worker.
			latencyWorkers int
		}{{"seq", -1}, {"dag", 8}} {
			run := func(b *testing.B, latency time.Duration, parallelism int) {
				device := &da.Solver{CapacityVars: 64}
				opt := Options{
					Device:      device,
					Runs:        4,
					TotalSweeps: 2000,
					Seed:        7,
					Parallelism: parallelism,
				}
				if latency > 0 {
					opt.Device = faultinject.New(device, faultinject.Config{Latency: latency})
				}
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					partial, err := in.SubProblems()
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					out, err := IncrementalOverSubProblems(ctx, in.Problem, partial, opt)
					if err != nil {
						b.Fatal(err)
					}
					if out.NumPartitions != subs {
						b.Fatalf("partitions = %d, want %d", out.NumPartitions, subs)
					}
				}
			}
			b.Run(fmt.Sprintf("subs=%d/%s", subs, mode.name), func(b *testing.B) {
				run(b, 0, -1)
			})
			b.Run(fmt.Sprintf("subs=%d/%s/latency", subs, mode.name), func(b *testing.B) {
				run(b, 2*time.Millisecond, mode.latencyWorkers)
			})
		}
	}
}
