package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/faultinject"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
)

func paperRequest(t *testing.T) solver.Request {
	t.Helper()
	p := mqo.PaperExample()
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	return solver.Request{Model: enc.Model, Runs: 4, Sweeps: 100, Seed: 7}
}

// scriptSolver fails according to a per-call error script (nil = succeed),
// counting calls. Errors past the script's end repeat the last entry.
type scriptSolver struct {
	name   string
	cap    int
	script []error

	mu    sync.Mutex
	calls int
}

func (s *scriptSolver) Name() string { return s.name }
func (s *scriptSolver) Capacity() int {
	return s.cap
}

func (s *scriptSolver) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	s.mu.Lock()
	i := s.calls
	s.calls++
	s.mu.Unlock()
	if len(s.script) > 0 {
		if i >= len(s.script) {
			i = len(s.script) - 1
		}
		if err := s.script[i]; err != nil {
			return nil, err
		}
	}
	n := 0
	if req.Model != nil {
		n = req.Model.NumVariables()
	}
	return &solver.Result{Samples: []solver.Sample{{Assignment: make([]int8, n), Energy: float64(s.calls)}}}, nil
}

func (s *scriptSolver) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func transientErr() error {
	return solver.MarkTransient(errors.New("flaky network"))
}

func TestRetryRecoversFromTransients(t *testing.T) {
	dev := &scriptSolver{name: "flaky", script: []error{transientErr(), transientErr(), nil}}
	r := NewRetry(dev, RetryConfig{Attempts: 3, Base: time.Microsecond})
	res, err := r.Solve(context.Background(), solver.Request{})
	if err != nil {
		t.Fatalf("retry failed to recover: %v", err)
	}
	if _, ok := res.Best(); !ok {
		t.Fatal("no samples after recovery")
	}
	if dev.callCount() != 3 {
		t.Errorf("calls = %d, want 3", dev.callCount())
	}
}

func TestRetryStopsAtAttemptBudget(t *testing.T) {
	dev := &scriptSolver{name: "dead", script: []error{transientErr()}}
	r := NewRetry(dev, RetryConfig{Attempts: 3, Base: time.Microsecond})
	_, err := r.Solve(context.Background(), solver.Request{})
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if dev.callCount() != 3 {
		t.Errorf("calls = %d, want 3", dev.callCount())
	}
	var ae interface{ Attempts() int }
	if !errors.As(err, &ae) || ae.Attempts() != 3 {
		t.Errorf("error %v does not carry attempt count 3", err)
	}
	if !solver.IsTransient(err) {
		t.Error("exhausted-transient error lost its transient marker")
	}
}

func TestRetryDoesNotRetryTerminalErrors(t *testing.T) {
	boom := errors.New("device on fire")
	dev := &scriptSolver{name: "burnt", script: []error{boom}}
	r := NewRetry(dev, RetryConfig{Attempts: 5, Base: time.Microsecond})
	_, err := r.Solve(context.Background(), solver.Request{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if dev.callCount() != 1 {
		t.Errorf("terminal error retried: %d calls", dev.callCount())
	}
}

func TestRetryBackoffDeterministic(t *testing.T) {
	// The jitter fraction must be a pure function of (seed, reqSeed,
	// attempt) — no wall clock, no global RNG.
	for attempt := 1; attempt <= 4; attempt++ {
		a := jitterFrac(11, 42, attempt)
		b := jitterFrac(11, 42, attempt)
		if a != b {
			t.Fatalf("jitterFrac not deterministic: %v vs %v", a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("jitterFrac out of range: %v", a)
		}
	}
	if jitterFrac(11, 42, 1) == jitterFrac(12, 42, 1) {
		t.Error("jitter ignores middleware seed")
	}
	if jitterFrac(11, 42, 1) == jitterFrac(11, 43, 1) {
		t.Error("jitter ignores request seed")
	}
}

func TestTimeoutReturnsBestSoFar(t *testing.T) {
	req := paperRequest(t)
	req.Sweeps = 1 << 22
	to := NewTimeout(&sa.Solver{}, 30*time.Millisecond)
	start := time.Now()
	res, err := to.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout did not bound the solve")
	}
	if len(res.Samples) == 0 {
		t.Error("timed-out solve returned no best-so-far samples")
	}
}

func TestBreakerTripsAndFailsFast(t *testing.T) {
	dev := &scriptSolver{name: "down", script: []error{transientErr()}}
	b := NewBreaker(dev, 2, 0)
	for i := 0; i < 5; i++ {
		if _, err := b.Solve(context.Background(), solver.Request{}); err == nil {
			t.Fatal("dead device reported success")
		}
	}
	// Threshold 2: two real attempts, then the circuit rejects the rest.
	if dev.callCount() != 2 {
		t.Errorf("device saw %d calls, want 2", dev.callCount())
	}
	if b.Trips() != 1 {
		t.Errorf("trips = %d, want 1", b.Trips())
	}
	_, err := b.Solve(context.Background(), solver.Request{})
	if !errors.Is(err, ErrOpen) {
		t.Errorf("open-circuit error = %v, want ErrOpen", err)
	}
	if solver.IsTransient(err) {
		t.Error("ErrOpen must be terminal so recovery escalates to fallback")
	}
}

func TestBreakerHalfOpensAfterCooldown(t *testing.T) {
	dev := &scriptSolver{name: "recovering", script: []error{transientErr(), transientErr(), nil}}
	b := NewBreaker(dev, 2, 2)
	// Two failures trip the circuit.
	b.Solve(context.Background(), solver.Request{})
	b.Solve(context.Background(), solver.Request{})
	// Two rejected calls during cooldown.
	for i := 0; i < 2; i++ {
		if _, err := b.Solve(context.Background(), solver.Request{}); !errors.Is(err, ErrOpen) {
			t.Fatalf("cooldown call %d: err = %v, want ErrOpen", i, err)
		}
	}
	// Next call probes the (now recovered) device and closes the circuit.
	if _, err := b.Solve(context.Background(), solver.Request{}); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, err := b.Solve(context.Background(), solver.Request{}); err != nil {
		t.Fatalf("closed-circuit solve failed: %v", err)
	}
	if dev.callCount() != 4 {
		t.Errorf("device saw %d calls, want 4 (2 failures + probe + success)", dev.callCount())
	}
}

func TestFallbackEscalatesAcrossDevices(t *testing.T) {
	primary := &scriptSolver{name: "hw", script: []error{errors.New("gone")}}
	backup := &scriptSolver{name: "sw"}
	f := NewFallback([]solver.Solver{primary, backup})
	res, err := f.Solve(context.Background(), solver.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Best(); !ok {
		t.Fatal("no samples from backup device")
	}
	if backup.callCount() != 1 {
		t.Errorf("backup saw %d calls, want 1", backup.callCount())
	}
	if f.Name() != "fallback(hw,sw)" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestFallbackRespectsCapacity(t *testing.T) {
	req := paperRequest(t)
	small := &scriptSolver{name: "tiny", cap: 1}
	big := &scriptSolver{name: "big"}
	f := NewFallback([]solver.Solver{small, big})
	if _, err := f.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if small.callCount() != 0 {
		t.Error("over-capacity device was consulted")
	}
	if big.callCount() != 1 {
		t.Error("capacity-compatible fallback not consulted")
	}
	// Chain capacity is the primary's: partitioning sizes for the intended
	// device.
	if f.Capacity() != 1 {
		t.Errorf("Capacity = %d, want primary's 1", f.Capacity())
	}
}

// largeScript adds vendor decomposition to scriptSolver so the fallback's
// SolveLarge path can be exercised; SolveLarge follows the same error
// script as Solve.
type largeScript struct {
	scriptSolver
	largeCalls int
}

func (s *largeScript) SolveLarge(ctx context.Context, req solver.Request) (*solver.Result, error) {
	s.largeCalls++
	return s.Solve(ctx, req)
}

func TestFallbackSolveLargeUsesPrimaryDecomposition(t *testing.T) {
	// The model exceeds the primary's capacity by construction whenever core
	// reaches for SolveLarge, so the chain's capacity gate must not skip the
	// primary's own decomposition (regression: it once did, degrading every
	// default-strategy run the moment a fallback device was configured).
	req := paperRequest(t)
	primary := &largeScript{scriptSolver: scriptSolver{name: "hw", cap: 1}}
	backup := &scriptSolver{name: "sw"}
	f := NewFallback([]solver.Solver{primary, backup})
	if _, err := f.SolveLarge(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if primary.largeCalls != 1 {
		t.Errorf("primary decomposition called %d times, want 1", primary.largeCalls)
	}
	if backup.callCount() != 0 {
		t.Error("healthy primary decomposition escalated to the backup")
	}

	// A failed decomposition falls through to a plain device that fits the
	// model whole, even though that device offers no decomposition itself.
	failing := &largeScript{scriptSolver: scriptSolver{name: "hw", cap: 1, script: []error{errors.New("decomposition down")}}}
	f = NewFallback([]solver.Solver{failing, backup})
	if _, err := f.SolveLarge(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if backup.callCount() != 1 {
		t.Error("failed decomposition did not fall through to the plain backup")
	}

	// A plain fallback device the model does not fit is skipped with an
	// error, not consulted.
	tiny := &scriptSolver{name: "tiny", cap: 1}
	f = NewFallback([]solver.Solver{failing, tiny})
	if _, err := f.SolveLarge(context.Background(), req); err == nil {
		t.Fatal("chain with no viable large path reported success")
	}
	if tiny.callCount() != 0 {
		t.Error("over-capacity plain fallback was consulted for a large model")
	}
}

func TestFallbackJoinsAllErrors(t *testing.T) {
	e1, e2 := errors.New("hw down"), errors.New("sw down")
	f := NewFallback([]solver.Solver{
		&scriptSolver{name: "a", script: []error{e1}},
		&scriptSolver{name: "b", script: []error{e2}},
	})
	_, err := f.Solve(context.Background(), solver.Request{})
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Errorf("joined error %v hides a device failure", err)
	}
	var ae interface{ Attempts() int }
	if !errors.As(err, &ae) || ae.Attempts() != 2 {
		t.Errorf("error %v does not carry total attempts 2", err)
	}
}

func TestWrapComposition(t *testing.T) {
	dev := &sa.Solver{}
	if got := Wrap([]solver.Solver{dev}, Config{}); got != solver.Solver(dev) {
		t.Error("zero config must return the device unchanged")
	}
	if got := Wrap(nil, Config{}); got != nil {
		t.Error("empty device list must return nil")
	}
	full := Wrap([]solver.Solver{&sa.Solver{}, &scriptSolver{name: "alt"}}, Config{
		Retries: 2, SolveTimeout: time.Second, BreakerThreshold: 3,
	})
	fb, ok := full.(*Fallback)
	if !ok {
		t.Fatalf("outermost layer = %T, want *Fallback", full)
	}
	br, ok := fb.Devices[0].(*Breaker)
	if !ok {
		t.Fatalf("second layer = %T, want *Breaker", fb.Devices[0])
	}
	re, ok := br.Inner.(*Retry)
	if !ok {
		t.Fatalf("third layer = %T, want *Retry", br.Inner)
	}
	if _, ok := re.Inner.(*Timeout); !ok {
		t.Fatalf("fourth layer = %T, want *Timeout", re.Inner)
	}
}

// TestWrapNoFaultBitIdentity pins the core resilience invariant: with no
// faults, the full middleware stack returns bit-identical samples to the
// bare device for any Parallelism.
func TestWrapNoFaultBitIdentity(t *testing.T) {
	req := paperRequest(t)
	for _, par := range []int{-1, 1, 4} {
		req.Parallelism = par
		bare, err := (&sa.Solver{}).Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := Wrap([]solver.Solver{&sa.Solver{}, &sa.Solver{}}, Config{
			Retries: 3, SolveTimeout: time.Minute, BreakerThreshold: 2, Seed: 5,
		})
		got, err := wrapped.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Samples) != len(bare.Samples) {
			t.Fatalf("parallelism %d: sample count %d vs %d", par, len(got.Samples), len(bare.Samples))
		}
		for i := range got.Samples {
			if got.Samples[i].Energy != bare.Samples[i].Energy {
				t.Fatalf("parallelism %d: sample %d energy diverged", par, i)
			}
			for v := range got.Samples[i].Assignment {
				if got.Samples[i].Assignment[v] != bare.Samples[i].Assignment[v] {
					t.Fatalf("parallelism %d: sample %d bit %d diverged", par, i, v)
				}
			}
		}
	}
}

// TestWrapRecoversInjectedFaults drives the full stack against the fault
// injector: transient faults are retried on the primary, a terminal kill
// escalates to the backup device, and the pipeline still gets samples.
func TestWrapRecoversInjectedFaults(t *testing.T) {
	req := paperRequest(t)
	primary := faultinject.New(&sa.Solver{}, faultinject.Config{TransientFirst: 2, TerminalAfter: 1})
	backup := &sa.Solver{}
	dev := Wrap([]solver.Solver{primary, backup}, Config{
		Retries: 3, RetryBase: time.Microsecond, BreakerThreshold: 5,
	})
	// Solve 1: two transient faults, then success on the third attempt.
	res, err := dev.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("transient faults not recovered: %v", err)
	}
	if _, ok := res.Best(); !ok {
		t.Fatal("no samples after retry recovery")
	}
	// Solve 2: the primary is now terminally dead; the chain must fall back.
	res, err = dev.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("terminal fault not escalated to backup: %v", err)
	}
	if _, ok := res.Best(); !ok {
		t.Fatal("no samples from backup")
	}
	st := primary.Stats()
	if st.Transients != 2 || st.Terminals == 0 {
		t.Errorf("injector stats = %+v", st)
	}
}

func TestMiddlewareEmitsObsEvents(t *testing.T) {
	reg := obs.NewRegistry()
	sink := obs.NewCollector(reg)
	ctx := obs.NewContext(context.Background(), sink)

	primary := &scriptSolver{name: "hw", script: []error{transientErr()}}
	backup := &scriptSolver{name: "sw"}
	dev := Wrap([]solver.Solver{primary, backup}, Config{
		Retries: 1, RetryBase: time.Microsecond, BreakerThreshold: 1,
	})
	if _, err := dev.Solve(ctx, solver.Request{}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range sink.Events() {
		counts[ev.Name]++
	}
	// One retry on the primary (attempt 1 -> 2), both attempts fail — one
	// exhausted solve trips the threshold-1 breaker -> fallback to sw.
	if counts["retry"] != 1 || counts["trip"] != 1 || counts["fallback"] != 1 {
		t.Errorf("event counts = %v, want retry/trip/fallback once each", counts)
	}
}

func TestLargeSolverPreservedThroughStack(t *testing.T) {
	// The stack must keep SolveLarge reachable so core.SolveDefault's type
	// assertion works on wrapped devices.
	var dev solver.Solver = Wrap([]solver.Solver{&sa.Solver{}}, Config{Retries: 1, SolveTimeout: time.Second, BreakerThreshold: 1})
	if _, ok := dev.(solver.LargeSolver); !ok {
		t.Fatal("wrapped device lost the LargeSolver interface")
	}
	// sa has no SolveLarge, so the call must fail cleanly, not panic.
	ls := dev.(solver.LargeSolver)
	if _, err := ls.SolveLarge(context.Background(), solver.Request{}); err == nil {
		t.Error("SolveLarge over a plain device must fail")
	}
}

func TestFallbackEmptyChain(t *testing.T) {
	f := NewFallback(nil)
	if _, err := f.Solve(context.Background(), solver.Request{}); err == nil {
		t.Error("empty chain reported success")
	}
	if f.Capacity() != 0 {
		t.Error("empty chain capacity != 0")
	}
}
