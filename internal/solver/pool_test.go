package solver

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incranneal/internal/obs"
	"incranneal/internal/qubo"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-1); got != 1 {
		t.Errorf("Workers(-1) = %d, want 1 (sequential)", got)
	}
}

func TestForEachRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9, 100} {
		const runs = 23
		var mu sync.Mutex
		counts := make([]int, runs)
		ForEachRun(runs, workers, func(run int) {
			mu.Lock()
			counts[run]++
			mu.Unlock()
		})
		for run, c := range counts {
			if c != 1 {
				t.Fatalf("workers %d: run %d executed %d times", workers, run, c)
			}
		}
	}
}

// TestForEachRunCapsConcurrency pins the worker cap: at most workers runs
// execute at once, and every run still executes.
func TestForEachRunCapsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		var running, peak, done atomic.Int32
		ForEachRun(8, workers, func(int) {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			done.Add(1)
		})
		if got := done.Load(); got != 8 {
			t.Errorf("workers %d: completed %d runs, want 8", workers, got)
		}
		if p := peak.Load(); p > int32(workers) {
			t.Errorf("workers %d: concurrency peak %d exceeds the cap", workers, p)
		}
	}
}

func TestForEachRunSequentialOrder(t *testing.T) {
	var order []int
	ForEachRun(5, 1, func(run int) { order = append(order, run) })
	for i, run := range order {
		if run != i {
			t.Fatalf("sequential pool out of order: %v", order)
		}
	}
}

func TestForEachRunZeroRuns(t *testing.T) {
	called := false
	ForEachRun(0, 4, func(int) { called = true })
	if called {
		t.Error("fn called with zero runs")
	}
}

func TestRunSeedsDeterministicAndDistinct(t *testing.T) {
	a := RunSeeds(7, 16)
	b := RunSeeds(7, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RunSeeds not deterministic")
		}
	}
	seen := make(map[int64]bool, len(a))
	for _, s := range a {
		if seen[s] {
			t.Fatal("RunSeeds produced duplicate seeds")
		}
		seen[s] = true
	}
	// A prefix of a longer derivation matches the shorter one, so growing
	// the run count never reshuffles earlier runs' streams.
	long := RunSeeds(7, 32)
	for i := range a {
		if long[i] != a[i] {
			t.Fatal("RunSeeds prefix not stable under run-count growth")
		}
	}
}

// fakeAnneal flips each variable of st with probability 1/2 and reports one
// sweep per variable set, so a run's Sweeps can be recovered from its
// sample.
func fakeAnneal(st *qubo.State, rng *rand.Rand, rt *obs.RunTrace) (Sample, int) {
	for v := 0; v < st.Model().NumVariables(); v++ {
		if rng.Intn(2) == 1 {
			st.Flip(v)
		}
	}
	a := st.Assignment()
	ones := 0
	for _, x := range a {
		ones += int(x)
	}
	rt.Finish(ones, 0, 0)
	return Sample{Assignment: a, Energy: st.Energy()}, ones
}

func runsModel() *qubo.Model {
	b := qubo.NewBuilder(12)
	for i := 0; i < 12; i++ {
		b.AddLinear(i, float64(i%5)-2)
		if i > 0 {
			b.AddQuadratic(i-1, i, float64(i%3)-1)
		}
	}
	return b.Build()
}

func TestRunsCancelledContextRunsOnlyRunZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	res := Runs(ctx, Request{Model: runsModel(), Seed: 3, Parallelism: -1}, "fake", 6, func(st *qubo.State, rng *rand.Rand, rt *obs.RunTrace) (Sample, int) {
		calls++
		return fakeAnneal(st, rng, rt)
	})
	if calls != 1 || len(res.Samples) != 1 {
		t.Fatalf("cancelled context: %d anneal calls, %d samples, want exactly run 0", calls, len(res.Samples))
	}
}

func TestRunsSortsSamplesAndSumsSweeps(t *testing.T) {
	res := Runs(context.Background(), Request{Model: runsModel(), Seed: 5, Parallelism: 4}, "fake", 9, fakeAnneal)
	if len(res.Samples) != 9 {
		t.Fatalf("%d samples, want 9", len(res.Samples))
	}
	if !sort.SliceIsSorted(res.Samples, func(i, j int) bool { return res.Samples[i].Energy < res.Samples[j].Energy }) {
		t.Error("samples not sorted by energy")
	}
	want := 0
	for _, s := range res.Samples {
		for _, x := range s.Assignment {
			want += int(x)
		}
	}
	if res.Sweeps != want {
		t.Errorf("Sweeps = %d, want the runs' sum %d", res.Sweeps, want)
	}
}

func TestRunsDeterministicAcrossParallelism(t *testing.T) {
	m := runsModel()
	warm := make([]int8, m.NumVariables())
	warm[0], warm[5] = 1, 1
	var ref *Result
	for _, par := range []int{-1, 1, 4} {
		res := Runs(context.Background(), Request{Model: m, Seed: 7, Parallelism: par, Warm: warm}, "fake", 8, fakeAnneal)
		if ref == nil {
			ref = res
			continue
		}
		if res.Sweeps != ref.Sweeps || len(res.Samples) != len(ref.Samples) {
			t.Fatalf("parallelism %d: %d samples / %d sweeps, want %d / %d", par, len(res.Samples), res.Sweeps, len(ref.Samples), ref.Sweeps)
		}
		for i := range res.Samples {
			if res.Samples[i].Energy != ref.Samples[i].Energy || !slices.Equal(res.Samples[i].Assignment, ref.Samples[i].Assignment) {
				t.Fatalf("parallelism %d: sample %d differs", par, i)
			}
		}
	}
}

func TestRunsTracesEachRunAndOnePool(t *testing.T) {
	sink := obs.NewCollector(obs.NewRegistry())
	ctx := obs.NewContext(context.Background(), sink)
	Runs(ctx, Request{Model: runsModel(), Seed: 9, Parallelism: 2}, "fake", 5, fakeAnneal)
	seen := map[int]int{}
	pools := 0
	for _, e := range sink.Events() {
		switch e.Name {
		case "run":
			if e.Device != "fake" {
				t.Errorf("run event from device %q, want fake", e.Device)
			}
			seen[e.Run]++
		case "pool":
			pools++
			if e.Device != "fake" || e.N != 5 {
				t.Errorf("pool event device %q runs %d, want fake 5", e.Device, e.N)
			}
		}
	}
	if len(seen) != 5 || pools != 1 {
		t.Errorf("run events %v and %d pool events, want one per run 0..4 and one pool", seen, pools)
	}
	for run, n := range seen {
		if n != 1 || run < 0 || run >= 5 {
			t.Errorf("run %d traced %d times", run, n)
		}
	}
}
