package solver

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"incranneal/internal/obs"
	"incranneal/internal/qubo"
)

// Runs executes a device's independent runs and collects their samples. It
// is the one place where runs are seeded, dispatched, traced and collected;
// a device supplies only anneal, its per-run kernel.
//
// Every run's seed derives from req.Seed (RunSeeds) before dispatch, and
// every run builds its own RNG from that seed and its start state from
// InitialState, so Samples are identical for every Parallelism and with or
// without an observability sink. Run 0 always executes, so the Result holds
// at least one sample; later runs are skipped once ctx is done, and anneal
// must itself return its best-so-far sample promptly when ctx is done. The
// result's Samples are sorted and its Sweeps sums the sweeps anneal reports
// for the runs performed. device names the runs in trace events.
func Runs(ctx context.Context, req Request, device string, runs int, anneal func(st *qubo.State, rng *rand.Rand, rt *obs.RunTrace) (Sample, int)) *Result {
	sink := obs.FromContext(ctx)
	label := ""
	if sink.Enabled() {
		label = obs.LabelFromContext(ctx)
	}
	seeds := RunSeeds(req.Seed, runs)
	samples := make([]Sample, runs)
	sweeps := make([]int, runs)
	done := make([]bool, runs)
	body := func(run int) {
		if run > 0 && Interrupted(ctx) {
			return
		}
		rt := sink.StartRun(device, label, run)
		rng := rand.New(rand.NewSource(seeds[run]))
		st := InitialState(req, run, runs, rng)
		samples[run], sweeps[run] = anneal(st, rng, rt)
		done[run] = true
	}
	workers := Workers(req.Parallelism)
	if sink.Enabled() {
		ps := ForEachRunStats(runs, workers, body)
		sink.Pool(device, label, ps.Runs, ps.Workers, ps.Busy, ps.Wall)
	} else {
		ForEachRun(runs, workers, body)
	}
	res := &Result{}
	for run, ok := range done {
		if ok {
			res.Samples = append(res.Samples, samples[run])
			res.Sweeps += sweeps[run]
		}
	}
	res.SortSamples()
	return res
}

// Workers resolves a request's Parallelism field into a worker count:
// positive values are honoured as given, zero falls back to GOMAXPROCS
// (use every core), negative forces sequential execution.
func Workers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	if parallelism < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// RunSeeds derives one RNG seed per run from the request seed, in run
// order and before any run is dispatched. Each run then builds its own
// rand.Rand from seeds[run], which makes results bit-identical regardless
// of how runs are interleaved across workers. The derivation matches the
// sequential rng.Int63() chain the solvers historically used, so existing
// seeds reproduce the same per-run streams.
func RunSeeds(seed int64, runs int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// PoolStats summarises one or more observed ForEachRun dispatches: how
// much work the pool executed (Busy, summed across runs) against its
// theoretical capacity (Workers × Wall). Devices aggregate the stats of a
// solve's dispatches and hand them to the observability sink; the
// disabled-sink path keeps calling the untimed ForEachRun, so observation
// is strictly opt-in.
type PoolStats struct {
	Runs, Workers int
	Busy, Wall    time.Duration
}

// Add accumulates q into p (runs, busy and wall sum; workers takes the
// maximum), letting per-segment dispatches (tempering exchanges, VA
// lockstep sweeps) report one aggregate per solve.
func (p *PoolStats) Add(q PoolStats) {
	p.Runs += q.Runs
	if q.Workers > p.Workers {
		p.Workers = q.Workers
	}
	p.Busy += q.Busy
	p.Wall += q.Wall
}

// ForEachRunStats is ForEachRun plus per-run busy-time measurement. The
// dispatch order, worker count and fn invocations are identical to
// ForEachRun — only two time.Now calls per run are added — so results stay
// bit-identical whether or not a solve is being observed.
func ForEachRunStats(runs, workers int, fn func(run int)) PoolStats {
	if workers > runs {
		workers = runs
	}
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	var busy atomic.Int64
	ForEachRun(runs, workers, func(run int) {
		t0 := time.Now()
		fn(run)
		busy.Add(int64(time.Since(t0)))
	})
	return PoolStats{Runs: runs, Workers: workers, Busy: time.Duration(busy.Load()), Wall: time.Since(start)}
}

// ForEachRun invokes fn(run) exactly once for every run in [0, runs),
// distributing runs over at most workers goroutines. fn must only touch
// per-run state (or synchronise itself); callers pre-derive per-run
// randomness with RunSeeds so the outcome is independent of the worker
// count. With one worker — or one run — everything executes on the calling
// goroutine, keeping the sequential path allocation- and scheduler-free.
func ForEachRun(runs, workers int, fn func(run int)) {
	if workers > runs {
		workers = runs
	}
	if workers <= 1 {
		for run := 0; run < runs; run++ {
			fn(run)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				run := int(next.Add(1)) - 1
				if run >= runs {
					return
				}
				fn(run)
			}
		}()
	}
	wg.Wait()
}
