package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

func testProblem(t *testing.T, seed int64) *mqo.Problem {
	t.Helper()
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 40, PPQ: 3, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in.Problem
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, ts
}

func postSolve(t *testing.T, url string, req SolveRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestServeSolveMatchesStandalone pins the acceptance criterion: a problem
// solved through mqoserve yields a bit-identical Outcome to a standalone
// Solve with the same seed and options.
func TestServeSolveMatchesStandalone(t *testing.T) {
	p := testProblem(t, 11)
	opt := core.Options{
		Device:      &da.Solver{CapacityVars: 40},
		Capacity:    40,
		Runs:        4,
		TotalSweeps: 800,
		Seed:        5,
		Parallelism: -1,
	}
	want, err := core.SolveIncremental(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Capacity: 40, Fleet: 2, Parallelism: -1})
	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: p,
		Options: SolveOptions{Runs: 4, TotalSweeps: 800, Seed: 5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if got.Cost != want.Cost {
		t.Errorf("served cost %v, standalone %v", got.Cost, want.Cost)
	}
	if len(got.Selected) != len(want.Solution.Selected) {
		t.Fatalf("served %d selections, standalone %d", len(got.Selected), len(want.Solution.Selected))
	}
	for q, pl := range got.Selected {
		if want.Solution.Selected[q] != pl {
			t.Fatalf("query %d: served plan %d, standalone %d", q, pl, want.Solution.Selected[q])
		}
	}
	if got.Partitions != want.NumPartitions || got.Sweeps != want.Sweeps {
		t.Errorf("served stats {parts %d, sweeps %d}, standalone {parts %d, sweeps %d}",
			got.Partitions, got.Sweeps, want.NumPartitions, want.Sweeps)
	}
}

// TestServeStreamingIncumbents consumes the NDJSON stream and checks the
// event protocol: accepted, then incumbents with growing merge counts, then
// the outcome carrying the final cost.
func TestServeStreamingIncumbents(t *testing.T) {
	p := testProblem(t, 13)
	_, ts := newTestServer(t, Config{Capacity: 40, Parallelism: -1})

	body, err := json.Marshal(SolveRequest{
		Problem: p,
		Options: SolveOptions{Runs: 4, TotalSweeps: 800, Seed: 9},
		Stream:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}

	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var e StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) < 3 {
		t.Fatalf("only %d events; want accepted + incumbents + outcome", len(events))
	}
	if events[0].Type != "accepted" || events[0].ID == "" {
		t.Errorf("first event %+v, want accepted with an id", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "outcome" || last.Outcome == nil {
		t.Fatalf("last event %+v, want outcome", last)
	}
	prev := 0
	for _, e := range events[1 : len(events)-1] {
		if e.Type != "incumbent" {
			t.Fatalf("mid-stream event type %q, want incumbent", e.Type)
		}
		if e.Merged <= prev {
			t.Errorf("merge counts not increasing: %d after %d", e.Merged, prev)
		}
		prev = e.Merged
	}
	if last.Outcome.Cost == 0 {
		t.Error("outcome carries no cost")
	}
	if last.Outcome.Partitions != prev {
		t.Errorf("outcome partitions %d, last incumbent merged %d", last.Outcome.Partitions, prev)
	}
}

// gatedSolver blocks Solve until released, so tests can hold fleet slots
// busy and fill the queue deterministically.
type gatedSolver struct {
	inner   solver.Solver
	started chan struct{} // one send per Solve entered
	release chan struct{} // one receive unblocks one Solve
}

func (g *gatedSolver) Name() string  { return g.inner.Name() }
func (g *gatedSolver) Capacity() int { return g.inner.Capacity() }
func (g *gatedSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Solve(ctx, req)
}

// TestAdmissionRejectOnFull fills the single fleet slot and the queue, then
// checks the next request bounces with 503 + Retry-After.
func TestAdmissionRejectOnFull(t *testing.T) {
	p := testProblem(t, 17)
	gate := &gatedSolver{
		inner:   &da.Solver{},
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Fleet:      1,
		QueueDepth: 1,
		Sink:       obs.NewSink(nil, reg),
		NewDevice:  func(string, int) (solver.Solver, error) { return gate, nil },
	})

	req := SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the only fleet slot
		defer wg.Done()
		postSolve(t, ts.URL, req)
	}()
	<-gate.started // the slot is now provably busy

	// Fill the queue (depth 1). The worker is blocked, so this job stays
	// queued; enqueueing is synchronous so no race with the rejection below.
	ok, _ := s.admit(&job{
		id: "filler", problem: p, strategy: core.StrategyIncremental, device: "da",
		ctx: context.Background(), admitted: time.Now(),
		sess: make(chan *core.Session, 1), result: make(chan jobResult, 1),
	})
	if !ok {
		t.Fatal("filler job not admitted")
	}

	resp, body := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "queue full") {
		t.Errorf("error body %s, want queue full", body)
	}
	if n := reg.Counter("serve.admission.rejected_full").Value(); n == 0 {
		t.Error("rejected_full counter not incremented")
	}

	// Release the gate for the in-flight solve and the filler's runs.
	go func() {
		for {
			select {
			case gate.release <- struct{}{}:
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()
	wg.Wait()
}

// TestDeadlineExpiredInQueue admits a request whose deadline lapses before
// a fleet slot frees up; it must be answered 504 without being solved.
func TestDeadlineExpiredInQueue(t *testing.T) {
	p := testProblem(t, 19)
	gate := &gatedSolver{
		inner:   &da.Solver{},
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{
		Fleet:      1,
		QueueDepth: 4,
		Sink:       obs.NewSink(nil, reg),
		NewDevice:  func(string, int) (solver.Solver, error) { return gate, nil },
	})

	req := SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSolve(t, ts.URL, req)
	}()
	<-gate.started

	// Queued behind the blocked slot with a 50 ms deadline. The response
	// can only arrive once the worker frees up, so post asynchronously,
	// let the deadline lapse while the job is provably still queued, then
	// release the gate.
	short := req
	short.Options.DeadlineMillis = 50
	type result struct {
		status int
		body   []byte
	}
	shortDone := make(chan result, 1)
	go func() {
		resp, body := postSolve(t, ts.URL, short)
		shortDone <- result{resp.StatusCode, body}
	}()
	time.Sleep(200 * time.Millisecond) // 50 ms deadline expires in queue
	go func() {
		for {
			select {
			case gate.release <- struct{}{}:
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()

	r := <-shortDone
	if r.status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", r.status, r.body)
	}
	var e errorBody
	if err := json.Unmarshal(r.body, &e); err != nil || !strings.Contains(e.Error, "expired in queue") {
		t.Errorf("error body %s, want expired in queue", r.body)
	}
	// The eager evictor should have pulled the job at its deadline
	// (evicted_expired); worker-side discovery (expired_in_queue) only
	// wins the race if the slot freed at the exact deadline instant.
	evicted := reg.Counter("serve.admission.evicted_expired").Value()
	expired := reg.Counter("serve.admission.expired_in_queue").Value()
	if evicted+expired == 0 {
		t.Error("neither evicted_expired nor expired_in_queue incremented")
	}
	if evicted == 0 {
		t.Error("eager evictor did not claim the provably expired queued job")
	}
	wg.Wait()
}

// TestGracefulShutdownDrains starts a solve, begins Shutdown mid-flight and
// checks (a) the in-flight request still gets its full answer, (b) new
// requests are rejected as draining, (c) Shutdown returns cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	p := testProblem(t, 23)
	gate := &gatedSolver{
		inner:   &da.Solver{},
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	s, err := New(Config{
		Fleet:     1,
		NewDevice: func(string, int) (solver.Solver, error) { return gate, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100}}
	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := postSolve(t, ts.URL, req)
		inflight <- result{resp.StatusCode, body}
	}()
	<-gate.started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Draining must reject new work immediately, while the old solve runs.
	for i := 0; ; i++ {
		resp, body := postSolve(t, ts.URL, req)
		if resp.StatusCode == http.StatusServiceUnavailable &&
			strings.Contains(string(body), "draining") {
			break
		}
		if i > 100 {
			t.Fatalf("never saw a draining rejection; last status %d (%s)", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	go func() {
		for {
			select {
			case gate.release <- struct{}{}:
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()

	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request got %d (%s), want its full answer", r.status, r.body)
	}
	var out SolveResponse
	if err := json.Unmarshal(r.body, &out); err != nil || len(out.Selected) != p.NumQueries() {
		t.Fatalf("drained response incomplete: %s", r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeBadRequests covers the 400 family: no body, no problem, unknown
// strategy, unknown device; plus 405 on GET.
func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProblem(t, 29)

	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: %d, want 405", resp.StatusCode)
	}

	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"no problem", `{}`},
		{"bad strategy", mustJSON(t, SolveRequest{Problem: p, Options: SolveOptions{Strategy: "nope"}})},
		{"bad device", mustJSON(t, SolveRequest{Problem: p, Options: SolveOptions{Device: "qpu9000"}})},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHealthzAndStatsz exercises the operational endpoints.
func TestHealthzAndStatsz(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Fleet: 3, QueueDepth: 7, Sink: obs.NewSink(nil, reg)})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Fleet != 3 || h.QueueCapacity != 7 {
		t.Errorf("healthz %+v", h)
	}

	p := testProblem(t, 31)
	postSolve(t, ts.URL, SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100}})

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := snap["serve.admission.accepted"]; !ok {
		t.Errorf("statsz missing serve.admission.accepted: %v", snap)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "draining" {
		t.Errorf("post-shutdown healthz status %q, want draining", h.Status)
	}
}

// TestConcurrentLoadDeterminism hammers a 2-slot fleet with identical
// seeded requests under contention and checks every response is identical —
// scheduling order must never leak into results.
func TestConcurrentLoadDeterminism(t *testing.T) {
	p := testProblem(t, 37)
	_, ts := newTestServer(t, Config{Capacity: 40, Fleet: 2, QueueDepth: 32, Parallelism: 2})

	const clients = 8
	costs := make([]float64, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSolve(t, ts.URL, SolveRequest{
				Problem: p,
				Options: SolveOptions{Runs: 2, TotalSweeps: 400, Seed: 99},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			var out SolveResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			costs[i] = out.Cost
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if costs[i] != costs[0] {
			t.Fatalf("client %d cost %v, client 0 cost %v — scheduling leaked into results", i, costs[i], costs[0])
		}
	}
}

// parallelismRecorder records the Request.Parallelism of every Solve it
// forwards, so a test can read the worker budget a served solve handed its
// device.
type parallelismRecorder struct {
	solver.Solver
	mu   sync.Mutex
	seen []int
}

func (pr *parallelismRecorder) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	pr.mu.Lock()
	pr.seen = append(pr.seen, req.Parallelism)
	pr.mu.Unlock()
	return pr.Solver.Solve(ctx, req)
}

// TestLoneSolveGetsWholeParallelism pins that a served solve is capped by
// the server's Parallelism, not by a per-slot share of it: a lone request
// on a 2-slot fleet hands its device all 4 workers.
func TestLoneSolveGetsWholeParallelism(t *testing.T) {
	rec := &parallelismRecorder{Solver: &da.Solver{}}
	_, ts := newTestServer(t, Config{
		Fleet: 2, Parallelism: 4,
		NewDevice: func(string, int) (solver.Solver, error) { return rec, nil },
	})
	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: testProblem(t, 17),
		Options: SolveOptions{Runs: 4, TotalSweeps: 400, Seed: 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.seen) == 0 {
		t.Fatal("the device never solved")
	}
	for _, par := range rec.seen {
		if par != 4 {
			t.Fatalf("device saw Parallelism %v, want 4 on every call", rec.seen)
		}
	}
}
