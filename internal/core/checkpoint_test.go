package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

func checkpointTestProblem(t testing.TB) *mqo.Problem {
	t.Helper()
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 40, PPQ: 3, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.8, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in.Problem
}

func checkpointTestOptions() Options {
	return Options{
		Device:      &da.Solver{CapacityVars: 36},
		Capacity:    36,
		Runs:        4,
		TotalSweeps: 800,
		Seed:        23,
	}
}

// assertOutcomeEqual compares the deterministic fields of two outcomes —
// everything except wall-clock timings.
func assertOutcomeEqual(t *testing.T, label string, want, got *Outcome) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %v, want %v", label, got.Cost, want.Cost)
	}
	if !reflect.DeepEqual(got.Solution.Selected, want.Solution.Selected) {
		t.Errorf("%s: plan selections diverged", label)
	}
	if got.Sweeps != want.Sweeps {
		t.Errorf("%s: sweeps %d, want %d", label, got.Sweeps, want.Sweeps)
	}
	if got.NumPartitions != want.NumPartitions {
		t.Errorf("%s: partitions %d, want %d", label, got.NumPartitions, want.NumPartitions)
	}
	if got.DiscardedSavings != want.DiscardedSavings {
		t.Errorf("%s: discarded savings %v, want %v", label, got.DiscardedSavings, want.DiscardedSavings)
	}
	if got.ReappliedSavings != want.ReappliedSavings {
		t.Errorf("%s: reapplied savings %v, want %v", label, got.ReappliedSavings, want.ReappliedSavings)
	}
	if !reflect.DeepEqual(got.Degradations, want.Degradations) {
		t.Errorf("%s: degradations %v, want %v", label, got.Degradations, want.Degradations)
	}
}

// seedFaultSolver fails solves whose request seed is in the fail set with a
// terminal error. Unlike faultinject's call-counter schedules, the failure
// is a pure function of the request, so it reproduces exactly at any
// Parallelism and across resume (replayed subs never reach the device).
type seedFaultSolver struct {
	inner solver.Solver
	fail  map[int64]bool
}

func (s *seedFaultSolver) Name() string  { return "seedfault(" + s.inner.Name() + ")" }
func (s *seedFaultSolver) Capacity() int { return s.inner.Capacity() }
func (s *seedFaultSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	if s.fail[req.Seed] {
		return nil, fmt.Errorf("seedfault: injected terminal failure for seed %d", req.Seed)
	}
	return s.inner.Solve(ctx, req)
}

// TestCheckpointResumeBitIdentity is the tentpole guarantee: a solve
// interrupted after k partial problems and resumed from its checkpoint
// produces the same Outcome as the uninterrupted run — costs, selections,
// sweeps, savings totals and degradation records — for the one-worker
// chain and the wave schedule at every Parallelism, for both partitioned
// strategies, with and without degraded sub-problems.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	ctx := context.Background()
	p := checkpointTestProblem(t)
	base := checkpointTestOptions()

	type variant struct {
		name      string
		solve     func(context.Context, *mqo.Problem, Options) (*Outcome, error)
		par       int
		failSeeds []int64
	}
	variants := []variant{
		{name: "sequential/serial", solve: SolveIncremental, par: -1},
		{name: "dag/serial", solve: SolveIncremental, par: 1},
		{name: "dag/par2", solve: SolveIncremental, par: 2},
		{name: "dag/par4", solve: SolveIncremental, par: 4},
		{name: "parallel/serial", solve: SolveParallel, par: -1},
		{name: "parallel/par4", solve: SolveParallel, par: 4},
		// A degraded sub-problem (terminal failure on sub 1's seed) must
		// replay its Degradation record verbatim on resume.
		{name: "sequential/degraded", solve: SolveIncremental, par: -1, failSeeds: []int64{base.Seed + 1001}},
		{name: "dag/degraded", solve: SolveIncremental, par: 2, failSeeds: []int64{base.Seed + 1001}},
		{name: "parallel/degraded", solve: SolveParallel, par: 2, failSeeds: []int64{base.Seed + 1001}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opt := base
			opt.Parallelism = v.par
			if len(v.failSeeds) > 0 {
				fail := make(map[int64]bool, len(v.failSeeds))
				for _, s := range v.failSeeds {
					fail[s] = true
				}
				opt.Device = &seedFaultSolver{inner: &da.Solver{CapacityVars: 36}, fail: fail}
			}

			// Uninterrupted reference run, capturing one checkpoint per merge.
			var cps []*Checkpoint
			refOpt := opt
			refOpt.CheckpointFunc = func(cp *Checkpoint) { cps = append(cps, cp) }
			ref, err := v.solve(ctx, p, refOpt)
			if err != nil {
				t.Fatal(err)
			}
			if ref.NumPartitions < 3 {
				t.Fatalf("instance produced %d partitions; want >= 3 for a meaningful interruption", ref.NumPartitions)
			}
			if len(cps) != ref.NumPartitions {
				t.Fatalf("%d checkpoints delivered for %d merges", len(cps), ref.NumPartitions)
			}

			// Resume after the first, a middle and the second-to-last merge
			// (resuming a fully finished solve replays everything).
			ks := []int{1, len(cps) / 2, len(cps) - 1, len(cps)}
			for _, k := range ks {
				if k < 1 {
					continue
				}
				cp := cps[k-1]
				if len(cp.Done) != k {
					t.Fatalf("checkpoint %d records %d finished subs", k, len(cp.Done))
				}
				// Journal round-trip: the serving layer persists checkpoints
				// as JSON, so resume must survive serialisation.
				raw, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				var thawed Checkpoint
				if err := json.Unmarshal(raw, &thawed); err != nil {
					t.Fatal(err)
				}
				resOpt := opt
				resOpt.Resume = &thawed
				got, err := v.solve(ctx, p, resOpt)
				if err != nil {
					t.Fatalf("resume after %d subs: %v", k, err)
				}
				assertOutcomeEqual(t, fmt.Sprintf("resume after %d/%d subs", k, ref.NumPartitions), ref, got)
			}
		})
	}
}

// TestCheckpointRecordsBothSchedules pins checkpoint shape for the
// one-worker chain, the wave schedule and the parallel strategy: per-merge
// delivery, cumulative Done lists, the steering mode, deep-copied query
// sets, and the sweep accounting that Outcome.Sweeps restores on resume.
func TestCheckpointRecordsBothSchedules(t *testing.T) {
	ctx := context.Background()
	p := checkpointTestProblem(t)
	for _, tc := range []struct {
		name     string
		solve    func(context.Context, *mqo.Problem, Options) (*Outcome, error)
		par      int
		strategy string
	}{
		{"chain", SolveIncremental, -1, StrategyIncremental},
		{"waves", SolveIncremental, 0, StrategyIncremental},
		{"parallel", SolveParallel, 0, StrategyParallel},
	} {
		opt := checkpointTestOptions()
		opt.Parallelism = tc.par
		var cps []*Checkpoint
		opt.CheckpointFunc = func(cp *Checkpoint) { cps = append(cps, cp) }
		out, err := tc.solve(ctx, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(cps) != out.NumPartitions {
			t.Fatalf("%s: %d checkpoints for %d partitions", tc.name, len(cps), out.NumPartitions)
		}
		totalSweeps := 0
		for i, cp := range cps {
			if len(cp.Done) != i+1 {
				t.Fatalf("checkpoint %d has %d done entries", i, len(cp.Done))
			}
			if cp.Strategy != tc.strategy || cp.Seed != opt.Seed {
				t.Fatalf("checkpoint misidentifies itself: %+v", cp)
			}
			if cp.Queries != p.NumQueries() || cp.Plans != p.NumPlans() {
				t.Fatalf("checkpoint shape %d/%d, want %d/%d", cp.Queries, cp.Plans, p.NumQueries(), p.NumPlans())
			}
			if len(cp.QuerySets) != out.NumPartitions {
				t.Fatalf("checkpoint %d carries %d query sets", i, len(cp.QuerySets))
			}
		}
		final := cps[len(cps)-1]
		seen := make(map[int]bool)
		for _, d := range final.Done {
			if seen[d.Sub] {
				t.Fatalf("sub %d recorded twice", d.Sub)
			}
			seen[d.Sub] = true
			totalSweeps += d.Sweeps
			if len(d.Selected) != len(final.QuerySets[d.Sub]) {
				t.Fatalf("sub %d: %d selections for %d queries", d.Sub, len(d.Selected), len(final.QuerySets[d.Sub]))
			}
		}
		if totalSweeps != out.Sweeps {
			t.Fatalf("%s: checkpointed sweeps %d, outcome %d", tc.name, totalSweeps, out.Sweeps)
		}
	}
}

// TestCheckpointResumeRejectsMismatch: a checkpoint from a different
// problem, seed, partitioning or steering mode must fail the solve, not
// silently restart.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	ctx := context.Background()
	p := checkpointTestProblem(t)
	opt := checkpointTestOptions()
	var last *Checkpoint
	capOpt := opt
	capOpt.CheckpointFunc = func(cp *Checkpoint) { last = cp }
	if _, err := SolveIncremental(ctx, p, capOpt); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint delivered")
	}

	cases := map[string]func(*Checkpoint){
		"seed":         func(cp *Checkpoint) { cp.Seed++ },
		"shape":        func(cp *Checkpoint) { cp.Queries++ },
		"plans":        func(cp *Checkpoint) { cp.Plans++ },
		"coverage":     func(cp *Checkpoint) { cp.QuerySets[0] = cp.QuerySets[0][:len(cp.QuerySets[0])-1] },
		"out-of-range": func(cp *Checkpoint) { cp.Done[0].Sub = len(cp.QuerySets) + 3 },
		"steering":     func(cp *Checkpoint) { cp.Strategy = StrategyParallel },
	}
	for name, mutate := range cases {
		cp := last.Clone()
		mutate(cp)
		bad := opt
		bad.Resume = cp
		if _, err := SolveIncremental(ctx, p, bad); err == nil {
			t.Errorf("%s mismatch: resume succeeded, want error", name)
		}
	}

	// The same partitioning solved without DSS re-applies no savings, so
	// its checkpoint must not resume a DSS solve, nor the reverse.
	bad := opt
	bad.Resume = last.Clone()
	if _, err := SolveParallel(ctx, p, bad); err == nil {
		t.Error("incremental checkpoint resumed a parallel solve")
	}
	var parLast *Checkpoint
	parOpt := opt
	parOpt.CheckpointFunc = func(cp *Checkpoint) { parLast = cp }
	if _, err := SolveParallel(ctx, p, parOpt); err != nil {
		t.Fatal(err)
	}
	bad.Resume = parLast
	if _, err := SolveIncremental(ctx, p, bad); err == nil {
		t.Error("parallel checkpoint resumed an incremental solve")
	}
	bad.DisableDSS = true
	if _, err := SolveIncremental(ctx, p, bad); err != nil {
		t.Errorf("parallel checkpoint rejected by a DSS-off incremental solve: %v", err)
	}
}

// TestSessionCheckpointAPI covers the Session surface: a session's
// Options.CheckpointFunc receives the restart points, resuming the latest
// through a second session reproduces the first's outcome for both
// partitioned strategies, and the default strategy simply never
// checkpoints.
func TestSessionCheckpointAPI(t *testing.T) {
	ctx := context.Background()
	p := checkpointTestProblem(t)
	opt := checkpointTestOptions()

	for _, strategy := range []string{StrategyIncremental, StrategyParallel} {
		var cp *Checkpoint
		capOpt := opt
		capOpt.CheckpointFunc = func(c *Checkpoint) { cp = c }
		sess := NewSession(p, capOpt)
		sess.Strategy = strategy
		out, err := sess.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if cp == nil {
			t.Fatalf("%s: finished checkpointing session has no checkpoint", strategy)
		}
		if len(cp.Done) != out.NumPartitions {
			t.Fatalf("%s: final checkpoint records %d subs, outcome has %d", strategy, len(cp.Done), out.NumPartitions)
		}

		// Resume the half-finished and the full checkpoint through fresh
		// sessions: partial and pure replay.
		half := cp.Clone()
		half.Done = half.Done[:len(half.Done)/2]
		for _, resume := range []*Checkpoint{half, cp} {
			resOpt := opt
			resOpt.Resume = resume
			resumed := NewSession(p, resOpt)
			resumed.Strategy = strategy
			got, err := resumed.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertOutcomeEqual(t, fmt.Sprintf("%s session resume after %d subs", strategy, len(resume.Done)), out, got)
		}
	}

	// The default strategy is not checkpointable: the callback must never
	// fire.
	sOpt := opt
	sOpt.CheckpointFunc = func(*Checkpoint) {
		t.Error("default strategy delivered a checkpoint")
	}
	s2 := NewSession(p, sOpt)
	s2.Strategy = StrategyDefault
	if _, err := s2.Run(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCloneIsolation: mutating a delivered checkpoint never
// corrupts the recorder's internal state (deliveries are deep copies).
func TestCheckpointCloneIsolation(t *testing.T) {
	ctx := context.Background()
	p := checkpointTestProblem(t)
	opt := checkpointTestOptions()
	opt.Parallelism = -1
	var cps []*Checkpoint
	opt.CheckpointFunc = func(cp *Checkpoint) {
		// Vandalise every delivery; later deliveries must be unaffected.
		cp.QuerySets[0][0] = -999
		if len(cp.Done) > 0 {
			cp.Done[0].Selected[0] = -999
		}
		cps = append(cps, cp)
	}
	if _, err := SolveIncremental(ctx, p, opt); err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatal("need at least two checkpoints")
	}
	lastCp := cps[len(cps)-1]
	if lastCp.QuerySets[0][0] == -999 && len(cps) > 1 {
		// The vandalism above ran on this very delivery; check the copy the
		// recorder made for it was fresh by confirming the first Done entry
		// of the *previous* delivery did not leak forward.
		if &cps[0].Done[0] == &lastCp.Done[0] {
			t.Fatal("deliveries share Done backing store")
		}
	}
	// A vandalised earlier checkpoint must not affect a resume from the
	// final one (re-fetch a clean copy by re-running with a clean callback).
	if strings.Contains(fmt.Sprint(lastCp.QuerySets[1:]), "-999") {
		t.Fatal("vandalism of one delivery leaked into another's query sets")
	}
}
