package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/faultinject"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/serve"
	"incranneal/internal/workload"
)

// ChaosSoak is the serve-layer chaos figure: it runs the mqoserve stack
// in-process twice over the same seeded instances — once clean, once with
// the fault harness killing workers mid-solve, slowing solves and failing
// journal writes — and checks the crash-safety invariants instead of
// timing them:
//
//   - No-fault phase: with journaling on but no injected faults, every
//     response (unary and streamed) is bit-identical to a standalone
//     core solve of the same instance, options and seed.
//   - Chaos phase: ≥ Scale.ChaosRequests requests under continuous worker
//     kills (each killed attempt resumes from its session checkpoint),
//     slow workers and journal write failures. Every accepted request
//     must still receive a terminal response, every OK cost must equal
//     the standalone reference, and every streamed response must be
//     well-formed NDJSON ending in an outcome event.
//
// A violated invariant is an error, not a table cell: the figure's value
// is that it ran, its rows just record the fault and throughput counts.
func ChaosSoak(ctx context.Context, cfg Config, scale Scale) (*Report, error) {
	cfg = cfg.withDefaults()
	soak := scale.ChaosRequests
	if soak <= 0 {
		soak = 200
	}
	// One client per six requests, at most 8: 4 at smoke scale.
	clients := min(8, max(1, soak/6))

	queries := scale.QuerySet[0]
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: queries, PPQ: scale.StandardPPQ, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.8,
		Seed: workload.ClassSeed("chaos", queries, scale.StandardPPQ, 0),
	})
	if err != nil {
		return nil, err
	}
	p := in.Problem
	// Capacity far below the instance size so every solve partitions:
	// kills only resume from checkpoints, and checkpoints only exist for
	// partitioned solves.
	capacity := p.NumPlans() / 4
	if capacity < 16 {
		capacity = 16
	}
	const runs, sweeps = 2, 400

	// Standalone references, one per request seed. The soak cycles these
	// seeds, so every response has a known-good cost to compare against.
	seeds := []int64{workload.ClassSeed("chaos-req", queries, 0, 0), workload.ClassSeed("chaos-req", queries, 0, 1),
		workload.ClassSeed("chaos-req", queries, 0, 2), workload.ClassSeed("chaos-req", queries, 0, 3)}
	refs := make(map[int64]*core.Outcome, len(seeds))
	for _, sd := range seeds {
		out, err := core.SolveIncremental(ctx, p, core.Options{
			Device: &da.Solver{CapacityVars: capacity}, Capacity: capacity,
			Runs: runs, TotalSweeps: sweeps, Seed: sd, Parallelism: cfg.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos reference seed %d: %w", sd, err)
		}
		refs[sd] = out
	}

	r := &Report{
		ID:    "chaos",
		Title: "Serve-layer chaos soak: crash-safety invariants under injected faults",
		Header: append(cfg.headerLines(scale),
			fmt.Sprintf("instance=%dq×%dppq capacity=%d runs=%d sweeps=%d clients=%d journal=on",
				queries, scale.StandardPPQ, capacity, runs, sweeps, clients)),
		Columns: []string{"phase", "requests", "ok", "streamed", "kills", "slowed", "journal faults", "wall", "throughput (req/s)", "invariants"},
		Notes: []string{
			"no-fault phase: every response is bit-identical (cost, plans, sweeps) to a standalone solve of the same seed — the harness errors on divergence",
			"chaos phase: worker kills resume from session checkpoints, so OK responses still match the standalone references; every request must get a terminal response and every streamed response must be well-formed NDJSON",
			"journal write failures degrade durability for the affected request but never reject it",
		},
	}

	// Phase 1 — no faults, journal on: the crash-safety plumbing must be
	// invisible. One unary and one streamed request per reference seed.
	{
		n, streamed, wall, err := soakPhase(ctx, p, refs, seeds, soakConfig{
			capacity: capacity, runs: runs, sweeps: sweeps,
			requests: 2 * len(seeds), clients: 2, everyOtherStreams: true,
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("chaos no-fault phase: %w", err)
		}
		r.AddRow("no-fault", fmt.Sprintf("%d", n), fmt.Sprintf("%d", n), fmt.Sprintf("%d", streamed),
			"0", "0", "0", wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(n)/wall.Seconds()), "bit-identical ✓")
	}

	// Phase 2 — the soak: kills, slow workers and journal write failures
	// all active at once. Serve counts a kill where it performs one, in
	// its metrics.
	chaos := faultinject.NewChaos(faultinject.Config{
		KillWorkerEvery: 3,
		SlowWorkerEvery: 5, SlowWorkerDelay: 2 * time.Millisecond,
		JournalFailEvery: 17,
	})
	reg := obs.NewRegistry()
	n, streamed, wall, err := soakPhase(ctx, p, refs, seeds, soakConfig{
		capacity: capacity, runs: runs, sweeps: sweeps,
		requests: soak, clients: clients, everyOtherStreams: false,
		sink: obs.NewSink(nil, reg),
	}, chaos)
	if err != nil {
		return nil, fmt.Errorf("chaos soak phase: %w", err)
	}
	kills := reg.Counter("serve.chaos.worker_kills").Value()
	if kills == 0 {
		return nil, fmt.Errorf("chaos soak injected no worker kills over %d requests", n)
	}
	st := chaos.Stats()
	r.AddRow("chaos", fmt.Sprintf("%d", n), fmt.Sprintf("%d", n), fmt.Sprintf("%d", streamed),
		fmt.Sprintf("%.0f", kills), fmt.Sprintf("%d", st.SlowedSolves), fmt.Sprintf("%d", st.JournalFailures),
		wall.Round(time.Millisecond).String(),
		fmt.Sprintf("%.1f", float64(n)/wall.Seconds()), "all held ✓")
	return r, nil
}

// soakConfig parameterises one soakPhase run.
type soakConfig struct {
	capacity, runs, sweeps int
	requests, clients      int
	// everyOtherStreams streams every second request; otherwise every
	// third streams (mixing protocols keeps both response paths under
	// fault pressure).
	everyOtherStreams bool
	// sink observes the soak server; nil observes nothing.
	sink *obs.Sink
}

// soakPhase starts a journaled in-process server (chaos optionally armed),
// issues sc.requests seeded solves from sc.clients concurrent clients —
// cycling seeds, priorities and the streaming protocol — and verifies
// every response against refs. It returns the request and streamed counts
// and the wall time.
func soakPhase(ctx context.Context, p *mqo.Problem, refs map[int64]*core.Outcome, seeds []int64, sc soakConfig, chaos *faultinject.Chaos) (int, int, time.Duration, error) {
	dir, err := os.MkdirTemp("", "mqobench-chaos-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)

	srv, err := serve.New(serve.Config{
		Fleet:      2,
		QueueDepth: sc.requests,
		Capacity:   sc.capacity,
		JournalDir: dir,
		Chaos:      chaos,
		Sink:       sc.sink,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	go srv.Serve(l) //nolint:errcheck // ErrServerClosed after Shutdown
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(sctx) //nolint:errcheck
	}()
	url := "http://" + l.Addr().String() + "/v1/solve"
	httpc := &http.Client{}
	priorities := []string{"low", "normal", "high"}

	var next atomic.Int64
	var streamedCount atomic.Int64
	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sc.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sc.requests || ctx.Err() != nil {
					return
				}
				seed := seeds[i%len(seeds)]
				want := refs[seed]
				stream := i%2 == 1
				if !sc.everyOtherStreams {
					stream = i%3 == 1
				}
				body, err := json.Marshal(serve.SolveRequest{
					Problem: p, Stream: stream,
					Options: serve.SolveOptions{
						Runs: sc.runs, TotalSweeps: sc.sweeps, Seed: seed,
						Priority: priorities[i%len(priorities)],
					},
				})
				if err != nil {
					setErr(err)
					return
				}
				resp, err := httpc.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					setErr(fmt.Errorf("request %d: %w", i, err))
					return
				}
				out, err := decodeSoakResponse(resp, stream)
				if err != nil {
					setErr(fmt.Errorf("request %d (seed %d): %w", i, seed, err))
					return
				}
				if stream {
					streamedCount.Add(1)
				}
				if out.Cost != want.Cost {
					setErr(fmt.Errorf("request %d: cost %v diverges from standalone %v", i, out.Cost, want.Cost))
					return
				}
				if out.Sweeps != want.Sweeps {
					setErr(fmt.Errorf("request %d: sweeps %d diverge from standalone %d", i, out.Sweeps, want.Sweeps))
					return
				}
				for q, pl := range out.Selected {
					if want.Solution.Selected[q] != pl {
						setErr(fmt.Errorf("request %d: query %d plan %d diverges from standalone %d", i, q, pl, want.Solution.Selected[q]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	return sc.requests, int(streamedCount.Load()), time.Since(start), nil
}

// decodeSoakResponse reads one soak response — unary JSON or NDJSON
// stream — and returns the final SolveResponse. Every NDJSON line must
// parse and the stream must terminate in an outcome event.
func decodeSoakResponse(resp *http.Response, stream bool) (*serve.SolveResponse, error) {
	defer resp.Body.Close()
	if !stream {
		rb, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, rb)
		}
		var out serve.SolveResponse
		if err := json.Unmarshal(rb, &out); err != nil {
			return nil, fmt.Errorf("malformed response body %q: %w", rb, err)
		}
		return &out, nil
	}
	if resp.StatusCode != http.StatusOK {
		rb, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("stream status %d: %s", resp.StatusCode, rb)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	var last serve.StreamEvent
	lines := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return nil, fmt.Errorf("malformed NDJSON line %q: %w", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if lines == 0 || last.Type != "outcome" || last.Outcome == nil {
		if last.Type == "error" {
			return nil, fmt.Errorf("stream ended in error: %s", last.Error)
		}
		return nil, fmt.Errorf("stream did not end in an outcome (%d lines, last %q)", lines, last.Type)
	}
	return last.Outcome, nil
}
