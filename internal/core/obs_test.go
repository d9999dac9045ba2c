package core

import (
	"context"
	"math"
	"testing"
	"time"

	"incranneal/internal/da"
	"incranneal/internal/faultinject"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/sa"
	"incranneal/internal/workload"
)

// TestObsDeterminism pins the observability layer's no-perturbation
// contract end to end: every strategy produces a bit-identical Outcome.Cost
// and plan selection for Parallelism ∈ {-1, 1, 4}, with and without an
// attached trace/metrics sink.
func TestObsDeterminism(t *testing.T) {
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 48, PPQ: 3, Communities: 3,
		DensityLow: 0.05, DensityHigh: 0.6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []struct {
		name string
		run  func(ctx context.Context, p *mqo.Problem, opt Options) (*Outcome, error)
	}{
		{"incremental", SolveIncremental},
		{"parallel", SolveParallel},
		{"default", SolveDefault},
	}
	for _, st := range strategies {
		t.Run(st.name, func(t *testing.T) {
			var refCost uint64
			var refSel []int
			first := true
			for _, par := range []int{-1, 1, 4} {
				for _, withSink := range []bool{false, true} {
					ctx := context.Background()
					if withSink {
						ctx = obs.NewContext(ctx, obs.NewCollector(obs.NewRegistry()))
					}
					out, err := st.run(ctx, in.Problem, Options{
						Device:      &da.Solver{CapacityVars: 96},
						Capacity:    96,
						Runs:        2,
						TotalSweeps: 2000,
						Seed:        7,
						Parallelism: par,
					})
					if err != nil {
						t.Fatalf("parallelism %d sink %v: %v", par, withSink, err)
					}
					cost := math.Float64bits(out.Cost)
					if first {
						refCost, refSel, first = cost, out.Solution.Selected, false
						continue
					}
					if cost != refCost {
						t.Errorf("parallelism %d sink %v: cost bits %x, want %x", par, withSink, cost, refCost)
					}
					if len(out.Solution.Selected) != len(refSel) {
						t.Fatalf("parallelism %d sink %v: selection length changed", par, withSink)
					}
					for q := range refSel {
						if out.Solution.Selected[q] != refSel[q] {
							t.Errorf("parallelism %d sink %v: query %d plan %d, want %d",
								par, withSink, q, out.Solution.Selected[q], refSel[q])
							break
						}
					}
				}
			}
		})
	}
}

// TestObsIncrementalEmitsPipelineEvents asserts the incremental pipeline's
// trace tells the whole story: partitioning, per-sub encodes, device runs,
// merges, DSS passes and the prepared-encoding cache counters.
func TestObsIncrementalEmitsPipelineEvents(t *testing.T) {
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 48, PPQ: 3, Communities: 3,
		DensityLow: 0.05, DensityHigh: 0.6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := obs.NewCollector(reg)
	ctx := obs.NewContext(context.Background(), sink)
	out, err := SolveIncremental(ctx, in.Problem, Options{
		Device:      &da.Solver{CapacityVars: 96},
		Capacity:    96,
		Runs:        2,
		TotalSweeps: 2000,
		Seed:        7,
		Parallelism: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumPartitions < 2 {
		t.Fatalf("instance did not partition (%d partial problems)", out.NumPartitions)
	}
	counts := map[string]int{}
	subLabelled := 0
	for _, e := range sink.Events() {
		counts[e.Name]++
		if e.Name == "run" && e.Label != "" && e.Label != "bisect" {
			subLabelled++
		}
	}
	for _, want := range []string{"run", "anneal", "decode", "merge", "partition", "bisect", "pool"} {
		if counts[want] == 0 {
			t.Errorf("no %q events in trace: %v", want, counts)
		}
	}
	if counts["merge"] != out.NumPartitions {
		t.Errorf("merge events = %d, want one per partition (%d)", counts["merge"], out.NumPartitions)
	}
	if subLabelled == 0 {
		t.Error("no device runs carried a subproblem label")
	}
	if out.ReappliedSavings > 0 && counts["dss"] == 0 {
		t.Error("DSS applied savings but emitted no dss events")
	}
	mat := reg.Counter("encode.materialise").Value()
	if mat < float64(out.NumPartitions) {
		t.Errorf("encode.materialise = %v, want >= %d partitions", mat, out.NumPartitions)
	}
	if reg.Counter("anneal.sweeps.da").Value() == 0 {
		t.Error("anneal.sweeps.da counter empty")
	}
}

// TestObsSingleClock pins spans as the pipeline's only clock: each
// PhaseTimings entry is exactly the duration its phase spans record, at any
// Parallelism, and a traced solve records its partitioning once.
func TestObsSingleClock(t *testing.T) {
	in := dagTestInstance(t)
	for _, par := range []int{-1, 1, 4} {
		sink := obs.NewCollector(nil)
		ctx, root := sink.StartTrace(obs.NewContext(context.Background(), sink), "solve", obs.NewTraceID(1, "clock"))
		opt := dagTestOptions()
		opt.Parallelism = par
		out, err := SolveIncremental(ctx, in.Problem, opt)
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		if out.NumPartitions < 2 || out.DAG.Waves < 2 {
			t.Fatalf("parallelism %d: instance did not partition into several waves: %+v", par, out.DAG)
		}
		partitions := 0
		var part, encode, anneal, dss time.Duration
		for _, e := range sink.Events() {
			switch e.Name {
			case "partition":
				partitions++
				part = e.Dur
			case "encode":
				encode += e.Dur
			case "anneal":
				anneal += e.Dur
			case "dss":
				dss += e.Dur
			}
		}
		if partitions != 1 {
			t.Errorf("parallelism %d: %d partition events, want 1", par, partitions)
		}
		if out.Timings.Partition != part {
			t.Errorf("parallelism %d: Timings.Partition %v, partition span %v", par, out.Timings.Partition, part)
		}
		if out.Timings.Encode != encode {
			t.Errorf("parallelism %d: Timings.Encode %v, encode spans sum to %v", par, out.Timings.Encode, encode)
		}
		if out.Timings.Anneal != anneal {
			t.Errorf("parallelism %d: Timings.Anneal %v, anneal spans sum to %v", par, out.Timings.Anneal, anneal)
		}
		if out.Timings.DSS != dss {
			t.Errorf("parallelism %d: Timings.DSS %v, dss spans sum to %v", par, out.Timings.DSS, dss)
		}
	}
}

// TestObsSolveDefaultPhases holds the default strategy's observations to
// the partitioned strategies': one encode, anneal and decode latency sample
// per solve, the encode sample even when the device fails, and every phase
// event of a traced solve inside its trace. (The devices' own "run" and
// "pool" points are not trace-linked.)
func TestObsSolveDefaultPhases(t *testing.T) {
	p := mqo.PaperExample()
	samples := func(reg *obs.Registry, phase string) int64 {
		return reg.Histogram("latency." + phase + "_ms").Snapshot().Count
	}

	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.NewSink(nil, reg))
	if _, err := SolveDefault(ctx, p, Options{Device: &sa.Solver{}, Runs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"encode", "anneal", "decode"} {
		if n := samples(reg, phase); n != 1 {
			t.Errorf("latency.%s_ms observed %d times, want 1", phase, n)
		}
	}

	reg = obs.NewRegistry()
	ctx = obs.NewContext(context.Background(), obs.NewSink(nil, reg))
	dead := faultinject.New(&sa.Solver{}, faultinject.Config{TerminalAfter: 0, TransientFirst: 99})
	out, err := SolveDefault(ctx, p, Options{Device: dead, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Degradations) != 1 {
		t.Fatalf("terminal device left degradations %+v, want one", out.Degradations)
	}
	if n := samples(reg, "encode"); n != 1 {
		t.Errorf("failed solve observed latency.encode_ms %d times, want 1", n)
	}

	sink := obs.NewCollector(nil)
	ctx, root := sink.StartTrace(obs.NewContext(context.Background(), sink), "solve", obs.NewTraceID(1, "default"))
	if _, err := SolveDefault(ctx, p, Options{Device: &sa.Solver{}, Runs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	root.End()
	phases := map[string]int{}
	for _, e := range sink.Events() {
		if e.Name == "run" || e.Name == "pool" {
			continue
		}
		phases[e.Name]++
		if e.Trace != root.TraceID() {
			t.Errorf("%s event outside the trace: %+v", e.Name, e)
		}
	}
	if phases["encode"] != 1 || phases["anneal"] != 1 || phases["decode"] != 1 {
		t.Errorf("traced phase events = %v, want one encode, anneal and decode", phases)
	}
}
