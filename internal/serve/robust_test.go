package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/faultinject"
	"incranneal/internal/obs"
	"incranneal/internal/solver"
)

// --- admission queue unit tests ----------------------------------------

func qjob(priority int) *job {
	return &job{priority: priority, sess: make(chan *core.Session, 1), result: make(chan jobResult, 1)}
}

func TestAdmissionQueueOrderAndDrain(t *testing.T) {
	q := newAdmissionQueue(8)
	low1, low2 := qjob(priorityLow), qjob(priorityLow)
	norm1, norm2 := qjob(priorityNormal), qjob(priorityNormal)
	high := qjob(priorityHigh)
	for _, j := range []*job{low1, norm1, low2, norm2, high} {
		if !q.push(j) {
			t.Fatal("push failed below capacity")
		}
	}
	// Dequeue: high first, then normals FIFO, then lows FIFO.
	want := []*job{high, norm1, norm2, low1, low2}
	for i, w := range want {
		j, ok := q.pop()
		if !ok || j != w {
			t.Fatalf("pop %d: got %p, want %p", i, j, w)
		}
	}

	// pushFront jumps the head of its class, and works after close.
	a, b, front := qjob(priorityNormal), qjob(priorityNormal), qjob(priorityNormal)
	q.push(a)
	q.push(b)
	q.close()
	if q.push(qjob(priorityNormal)) {
		t.Fatal("push succeeded on closed queue")
	}
	q.pushFront(front)
	order := []*job{front, a, b}
	for i, w := range order {
		j, ok := q.pop()
		if !ok || j != w {
			t.Fatalf("drain pop %d: got %p, want %p", i, j, w)
		}
	}
	// Closed and empty: pop reports done.
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned a job from a closed empty queue")
	}
}

func TestAdmissionQueueRemoveExactlyOnce(t *testing.T) {
	q := newAdmissionQueue(4)
	j := qjob(priorityNormal)
	q.push(j)
	if !q.remove(j) {
		t.Fatal("first remove lost")
	}
	if q.remove(j) {
		t.Fatal("second remove won too")
	}
	if q.len() != 0 {
		t.Fatalf("queue len %d after remove", q.len())
	}
	// Capacity bound.
	q2 := newAdmissionQueue(1)
	if !q2.push(qjob(priorityLow)) || q2.push(qjob(priorityHigh)) {
		t.Fatal("capacity not enforced")
	}
}

// --- overload shedding ---------------------------------------------------

func TestShedderGate(t *testing.T) {
	sh := newShedder(10 * time.Millisecond)
	if sh.overloaded() {
		t.Fatal("empty shedder overloaded")
	}
	for i := 0; i < minShedSamples; i++ {
		sh.observe(time.Second)
	}
	if !sh.overloaded() {
		t.Fatal("p99 of 1s waits under a 10ms target not overloaded")
	}
	// A nil shedder (ShedTarget 0) never sheds.
	var off *shedder
	off.observe(time.Hour)
	if off.overloaded() {
		t.Fatal("nil shedder shed")
	}
}

func TestShedRejectsLowPriorityKeepsHigh(t *testing.T) {
	p := testProblem(t, 31)
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Fleet: 1, ShedTarget: time.Millisecond,
		Sink: obs.NewSink(nil, reg),
	})
	// Saturate the shedder's window with hopeless queue waits.
	for i := 0; i < minShedSamples+2; i++ {
		s.shed.observe(time.Second)
	}

	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: 1},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("normal priority under overload: status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed rejection carries no Retry-After")
	}
	if !strings.Contains(string(body), "shedding") {
		t.Errorf("shed body %s does not name shedding", body)
	}
	if reg.Counter("serve.admission.shed").Value() == 0 {
		t.Error("shed counter not incremented")
	}

	// High priority sails through the same overload.
	resp, body = postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: 1, Priority: "high"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("high priority under overload: status %d (%s), want 200", resp.StatusCode, body)
	}
}

func TestBadPriorityRejected(t *testing.T) {
	p := testProblem(t, 31)
	_, ts := newTestServer(t, Config{Fleet: 1})
	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Priority: "urgent"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "priority") {
		t.Errorf("error body %s does not name the priority", body)
	}
}

// --- watchdog ------------------------------------------------------------

// wedgedSolver ignores context cancellation entirely — the failure mode
// the watchdog exists for. unwedge releases every stuck solve.
type wedgedSolver struct {
	inner  solver.Solver
	wedged chan struct{}
}

func (ws *wedgedSolver) Name() string  { return "wedged(" + ws.inner.Name() + ")" }
func (ws *wedgedSolver) Capacity() int { return ws.inner.Capacity() }
func (ws *wedgedSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	<-ws.wedged // deliberately NOT selecting on ctx.Done()
	return ws.inner.Solve(context.Background(), req)
}

func TestWatchdogQuarantinesWedgedWorker(t *testing.T) {
	p := testProblem(t, 37)
	reg := obs.NewRegistry()
	wedge := &wedgedSolver{inner: &da.Solver{}, wedged: make(chan struct{})}
	var mu sync.Mutex
	wedgeOn := true
	s, ts := newTestServer(t, Config{
		Fleet:          1,
		WatchdogFactor: 1,
		WatchdogGrace:  100 * time.Millisecond,
		Sink:           obs.NewSink(nil, reg),
		NewDevice: func(string, int) (solver.Solver, error) {
			mu.Lock()
			defer mu.Unlock()
			if wedgeOn {
				return wedge, nil
			}
			return &da.Solver{}, nil
		},
	})
	defer close(wedge.wedged) // let the quarantined goroutine drain at test end

	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, DeadlineMillis: 150},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("wedged solve: status %d (%s), want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "quarantined") {
		t.Errorf("error body %s does not mention quarantine", body)
	}
	if reg.Counter("serve.worker.quarantined").Value() != 1 {
		t.Errorf("quarantined counter %v, want 1", reg.Counter("serve.worker.quarantined").Value())
	}

	// The replacement slot builds fresh stacks; hand it a working device
	// and confirm the server still serves.
	mu.Lock()
	wedgeOn = false
	mu.Unlock()
	resp, body = postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-quarantine solve: status %d (%s), want 200", resp.StatusCode, body)
	}
	_ = s
}

// --- chaos worker kills --------------------------------------------------

// TestChaosKillResumesBitIdentical is the serve-side face of the
// checkpoint tentpole: with the chaos harness killing every attempt it is
// allowed to, the final response still matches a standalone solve bit for
// bit, because each retry resumes from the killed attempt's checkpoint.
func TestChaosKillResumesBitIdentical(t *testing.T) {
	p := testProblem(t, 41)
	want, err := core.SolveIncremental(context.Background(), p, core.Options{
		Device: &da.Solver{CapacityVars: 40}, Capacity: 40, Runs: 2, TotalSweeps: 400, Seed: 9, Parallelism: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	chaos := faultinject.NewChaos(faultinject.Config{KillWorkerEvery: 1})
	_, ts := newTestServer(t, Config{
		Fleet: 1, Capacity: 40, Parallelism: -1, Chaos: chaos,
		Sink: obs.NewSink(nil, reg),
	})
	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Runs: 2, TotalSweeps: 400, Seed: 9},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var got SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Errorf("chaos-killed cost %v, standalone %v", got.Cost, want.Cost)
	}
	for q, pl := range got.Selected {
		if want.Solution.Selected[q] != pl {
			t.Fatalf("query %d: chaos-killed plan %d, standalone %d", q, pl, want.Solution.Selected[q])
		}
	}
	if got.Sweeps != want.Sweeps {
		t.Errorf("chaos-killed sweeps %d, standalone %d", got.Sweeps, want.Sweeps)
	}
	if kills := reg.Counter("serve.chaos.worker_kills").Value(); kills == 0 {
		t.Error("kill-worker-every=1 injected no kills")
	}
}

// TestChaosKillSparesUnpartitionedSolve: an attempt is killed only once
// its first checkpoint lands, so a problem that fits the device runs to
// completion under kill-worker-every=1, and no kill is counted.
func TestChaosKillSparesUnpartitionedSolve(t *testing.T) {
	p := testProblem(t, 41)
	want, err := core.SolveIncremental(context.Background(), p, core.Options{
		Device: &da.Solver{}, Runs: 2, TotalSweeps: 400, Seed: 9, Parallelism: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.NumPartitions != 1 {
		t.Fatalf("%d partitions at default capacity, want 1", want.NumPartitions)
	}

	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{
		Fleet: 1, Parallelism: -1, Chaos: faultinject.NewChaos(faultinject.Config{KillWorkerEvery: 1}),
		Sink: obs.NewSink(nil, reg),
	})
	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Strategy: core.StrategyIncremental, Runs: 2, TotalSweeps: 400, Seed: 9},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var got SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Errorf("served cost %v, standalone %v", got.Cost, want.Cost)
	}
	if kills := reg.Counter("serve.chaos.worker_kills").Value(); kills != 0 {
		t.Errorf("%v kills counted for an attempt that never checkpoints, want 0", kills)
	}
}

// TestChaosKillStreamWellFormed checks the NDJSON protocol survives a
// kill-and-resume: every line parses, and the outcome line matches the
// standalone reference.
func TestChaosKillStreamWellFormed(t *testing.T) {
	p := testProblem(t, 43)
	want, err := core.SolveIncremental(context.Background(), p, core.Options{
		Device: &da.Solver{CapacityVars: 40}, Capacity: 40, Runs: 2, TotalSweeps: 400, Seed: 7, Parallelism: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultinject.NewChaos(faultinject.Config{KillWorkerEvery: 1})
	_, ts := newTestServer(t, Config{Fleet: 1, Capacity: 40, Parallelism: -1, Chaos: chaos})

	body, err := json.Marshal(SolveRequest{
		Problem: p, Stream: true,
		Options: SolveOptions{Runs: 2, TotalSweeps: 400, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 || events[0].Type != "accepted" {
		t.Fatalf("stream shape wrong: %+v", events)
	}
	last := events[len(events)-1]
	if last.Type != "outcome" || last.Outcome == nil {
		t.Fatalf("stream does not end in an outcome: %+v", last)
	}
	if last.Outcome.Cost != want.Cost {
		t.Errorf("streamed chaos outcome cost %v, standalone %v", last.Outcome.Cost, want.Cost)
	}
}

// TestChaosSlowWorkerCountsEveryAttempt: the slow-worker schedule advances
// once per solve attempt, whatever the strategy, so slow-worker-every=3
// slows exactly 3 of 9 solves.
func TestChaosSlowWorkerCountsEveryAttempt(t *testing.T) {
	p := testProblem(t, 53)
	for _, strategy := range []string{core.StrategyDefault, core.StrategyIncremental} {
		chaos := faultinject.NewChaos(faultinject.Config{SlowWorkerEvery: 3, SlowWorkerDelay: time.Millisecond})
		_, ts := newTestServer(t, Config{Fleet: 1, Capacity: 40, Parallelism: -1, Chaos: chaos})
		for i := 0; i < 9; i++ {
			resp, body := postSolve(t, ts.URL, SolveRequest{
				Problem: p, Options: SolveOptions{Strategy: strategy, Runs: 1, TotalSweeps: 100, Seed: int64(i + 1)},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s solve %d: status %d (%s)", strategy, i, resp.StatusCode, body)
			}
		}
		if n := chaos.Stats().SlowedSolves; n != 3 {
			t.Errorf("%s: slow-worker-every=3 slowed %d of 9 solves, want 3", strategy, n)
		}
	}
}

// --- journal -------------------------------------------------------------

func TestJournalAcceptAndTombstone(t *testing.T) {
	p := testProblem(t, 47)
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Fleet: 1, JournalDir: dir})
	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	// Flush through Shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"op":"accept"`) || !strings.Contains(string(raw), `"op":"done"`) {
		t.Fatalf("journal missing accept/tombstone:\n%s", raw)
	}
	orphans, _, err := readOrphans(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("answered request left %d orphans", len(orphans))
	}
}

// fabricateJournal writes accept records (and optional tombstones) the way
// a crashed daemon would have left them.
func fabricateJournal(t *testing.T, dir string, recs []journalRecord) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestJournalReplayAfterCrash(t *testing.T) {
	p := testProblem(t, 53)
	dir := t.TempDir()
	fabricateJournal(t, dir, []journalRecord{
		{Op: "accept", ID: "r000001", Priority: priorityNormal,
			Request: &SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: 5}}},
		{Op: "accept", ID: "r000002", Priority: priorityHigh,
			Request: &SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: 6}}},
		{Op: "accept", ID: "r000003", Priority: priorityNormal,
			Request: &SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: 7}}},
		{Op: "done", ID: "r000003"}, // already answered pre-crash
	})

	reg := obs.NewRegistry()
	gate := &gatedSolver{inner: &da.Solver{}, started: make(chan struct{}, 64), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{
		Fleet: 1, JournalDir: dir,
		Sink:      obs.NewSink(nil, reg),
		NewDevice: func(string, int) (solver.Solver, error) { return gate, nil },
	})

	// While the replays are gated mid-solve the server is not ready...
	<-gate.started
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz Readyz
	json.NewDecoder(resp.Body).Decode(&rz) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rz.Status != "replaying" {
		t.Fatalf("/readyz during replay: status %d body %+v, want 503 replaying", resp.StatusCode, rz)
	}
	// ...but alive.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during replay: status %d, want 200", resp.StatusCode)
	}

	// Release every gated solve and wait for readiness.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case gate.release <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.replaying.Load() {
		if time.Now().After(deadline) {
			t.Fatal("replay did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after replay: status %d, want 200", resp.StatusCode)
	}

	if n := reg.Counter("serve.journal.replayed").Value(); n != 2 {
		t.Errorf("replayed counter %v, want 2 (r000003 was tombstoned)", n)
	}
	// New ids must not collide with journaled ones: the generator was
	// seeded past r000003.
	if id := s.ids.next(); id <= "r000003" {
		t.Errorf("post-replay id %s collides with journaled ids", id)
	}
	// Replays completed: both ids are tombstoned now.
	s.journal.mu.Lock()
	s.journal.w.Flush() //nolint:errcheck
	s.journal.mu.Unlock()
	orphans, _, err := readOrphans(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("replayed requests left %d orphans", len(orphans))
	}
}

func TestJournalWriteFailureDegradesNotRejects(t *testing.T) {
	p := testProblem(t, 59)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	chaos := faultinject.NewChaos(faultinject.Config{JournalFailEvery: 1})
	_, ts := newTestServer(t, Config{
		Fleet: 1, JournalDir: dir, Chaos: chaos,
		Sink: obs.NewSink(nil, reg),
	})
	resp, body := postSolve(t, ts.URL, SolveRequest{
		Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: 8},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("journal-failed request: status %d (%s), want 200 — write failure must degrade, not reject", resp.StatusCode, body)
	}
	if reg.Counter("serve.journal.write_failures").Value() == 0 {
		t.Error("write_failures counter not incremented")
	}
	if chaos.Stats().JournalFailures == 0 {
		t.Error("chaos stats recorded no journal failures")
	}
}

// TestJournalDisabledUnchanged pins the compatibility satellite: without
// JournalDir the server writes nothing anywhere and /readyz is ready
// immediately.
func TestJournalDisabledUnchanged(t *testing.T) {
	p := testProblem(t, 61)
	s, ts := newTestServer(t, Config{Fleet: 1})
	if s.journal != nil {
		t.Fatal("journal exists without JournalDir")
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz without journal: %d", resp.StatusCode)
	}
	if resp, body := postSolve(t, ts.URL, SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
}

// --- readiness during drain ---------------------------------------------

func TestReadyzDrainsBeforeHealthz(t *testing.T) {
	p := testProblem(t, 67)
	gate := &gatedSolver{inner: &da.Solver{}, started: make(chan struct{}, 64), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{
		Fleet:     1,
		NewDevice: func(string, int) (solver.Solver, error) { return gate, nil },
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSolve(t, ts.URL, SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100}})
	}()
	<-gate.started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Draining with one in-flight job: /readyz says 503, /healthz stays 200.
	var sawDraining bool
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			break // listener may already be closing
		}
		var rz Readyz
		json.NewDecoder(resp.Body).Decode(&rz) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && rz.Status == "draining" {
			sawDraining = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDraining {
		t.Error("/readyz never reported draining during shutdown")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err == nil {
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz during drain: %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	}

	released := make(chan struct{})
	go func() {
		for {
			select {
			case gate.release <- struct{}{}:
			case <-released:
				return
			}
		}
	}()
	wg.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(released)
}

// --- priority end to end -------------------------------------------------

// seedOrderSolver records the request seed of every Solve it runs, so a
// test can reconstruct which job each fleet pickup belonged to.
type seedOrderSolver struct {
	inner solver.Solver
	gate  *gatedSolver
	mu    sync.Mutex
	seeds []int64
}

func (so *seedOrderSolver) Name() string  { return so.inner.Name() }
func (so *seedOrderSolver) Capacity() int { return so.inner.Capacity() }
func (so *seedOrderSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	so.mu.Lock()
	so.seeds = append(so.seeds, req.Seed)
	so.mu.Unlock()
	return so.gate.Solve(ctx, req)
}

// TestPriorityDequeueOrder holds the single fleet slot, queues one request
// per class in the order low → normal → high, then releases the slot and
// checks the fleet picked them up by class rank, not arrival order. Pickup
// order is reconstructed from the per-request solve seeds (job seeds are
// distinct, per-sub seeds are seed+1000+i).
func TestPriorityDequeueOrder(t *testing.T) {
	p := testProblem(t, 71)
	gate := &gatedSolver{inner: &da.Solver{}, started: make(chan struct{}, 256), release: make(chan struct{})}
	rec := &seedOrderSolver{inner: &da.Solver{}, gate: gate}
	s, ts := newTestServer(t, Config{
		Fleet: 1, QueueDepth: 8,
		NewDevice: func(string, int) (solver.Solver, error) { return rec, nil },
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSolve(t, ts.URL, SolveRequest{Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100}})
	}()
	<-gate.started // slot busy; everything below queues

	classSeed := map[string]int64{"low": 100000, "normal": 200000, "high": 300000}
	post := func(priority string) {
		defer wg.Done()
		resp, body := postSolve(t, ts.URL, SolveRequest{
			Problem: p, Options: SolveOptions{Runs: 1, TotalSweeps: 100, Seed: classSeed[priority], Priority: priority},
		})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d (%s)", priority, resp.StatusCode, body)
		}
	}
	// Arrival order low → normal → high; ensure each is enqueued before
	// the next arrives so FIFO would invert the expected order.
	for _, pr := range []string{"low", "normal", "high"} {
		wg.Add(1)
		go post(pr)
		waitForQueued(t, s, pr)
	}

	done := make(chan struct{})
	go func() {
		for {
			select {
			case gate.release <- struct{}{}:
			case <-done:
				return
			}
		}
	}()
	wg.Wait()
	close(done)

	// First-seen order of each job's seed class across all device solves.
	rec.mu.Lock()
	seeds := append([]int64(nil), rec.seeds...)
	rec.mu.Unlock()
	var got []string
	seen := map[string]bool{}
	for _, sd := range seeds {
		for name, base := range classSeed {
			if sd >= base && sd < base+100000 && !seen[name] {
				seen[name] = true
				got = append(got, name)
			}
		}
	}
	want := []string{"high", "normal", "low"}
	if len(got) != 3 {
		t.Fatalf("saw %v pickups, want all three classes", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pickup order %v, want %v", got, want)
		}
	}
}

// waitForQueued blocks until the named priority class has one queued job.
func waitForQueued(t *testing.T, s *Server, priority string) {
	t.Helper()
	pr, _ := parsePriority(priority, priorityNormal)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.queue.mu.Lock()
		n := len(s.queue.buckets[pr])
		s.queue.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job with priority %s never queued", priority)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- spec errors surface through server construction ---------------------

func TestNewRejectsBadDefaultPriority(t *testing.T) {
	if _, err := New(Config{DefaultPriority: "asap"}); err == nil {
		t.Fatal("New accepted an unknown default priority")
	}
}

// TestServeBoundsHeaderRead checks that the HTTP server Serve builds gives
// a connection a bounded time to send its headers: without one, a client
// that trickles header bytes holds its connection's goroutine for good.
func TestServeBoundsHeaderRead(t *testing.T) {
	s, err := New(Config{Fleet: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	var srv *http.Server
	for deadline := time.Now().Add(5 * time.Second); srv == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Serve never built its HTTP server")
		}
		s.mu.Lock()
		srv = s.httpSrv
		s.mu.Unlock()
	}
	if got := srv.ReadHeaderTimeout; got <= 0 || got != headerTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, headerTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

var _ = fmt.Sprintf // keep fmt imported if assertions above change
