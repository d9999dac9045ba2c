// Package obs is the pipeline's observability substrate: span-style trace
// events, a metrics registry and exporters (JSONL trace files, an in-memory
// collector for programmatic analysis, a human-readable summary table and
// the Prometheus text format), threaded through the whole incremental MQO
// stack — the Monte-Carlo kernels, the run-level worker pool, the
// partitioning recursion, dynamic search steering and the prepared-encoding
// cache.
//
// Spans are the one clock. Every pipeline phase is timed by a Phase
// (StartPhase … End), which reads the clock once at each end and reuses that
// single duration as the caller's PhaseTimings entry, the Dur of the phase's
// span (or of its flat event outside a trace) and the phase's
// latency.<phase>_ms histogram.
//
// Two hard contracts shape the API:
//
//   - Zero overhead when disabled. A nil *Sink is the disabled sink; every
//     method has a nil receiver fast path, and the kernel-facing types
//     (RunTrace) are only allocated when a sink is present, so the
//     instrumented-off hot paths execute the exact pre-instrumentation
//     machine code shape: no allocations, one predictable branch.
//     TestNilSinkIsFree, TestSpanDisabledIsFree and TestPhaseDisabledIsFree
//     here, and TestDisabledSink* in internal/da, pin this.
//   - No determinism perturbation. Instrumentation only reads pipeline
//     state; it never touches an RNG stream, never reorders work, and never
//     feeds back into the optimisation. Result.Samples and Outcome.Cost are
//     bit-identical with any sink, for any Request.Parallelism
//     (TestObsDeterminism* in internal/core and the device packages).
package obs

import (
	"context"
	"io"
	"sync"
	"time"
)

// ConvPoint is one point of an incumbent-energy convergence trajectory: the
// best energy a run had observed after the given sweep (Monte-Carlo step).
type ConvPoint struct {
	Sweep  int
	Energy float64
}

// Event is one trace record. The struct is deliberately flat — fixed typed
// fields instead of an attribute map — so emission needs no reflection and
// the JSONL encoder is a straight append loop. Unused fields stay zero and
// are omitted from the encoded line.
type Event struct {
	// T is the emission time relative to the sink's start.
	T time.Duration
	// Name identifies the event kind: the phases "partition", "bisect",
	// "encode", "anneal", "decode", "dag" (graph built: edges, waves,
	// density), "wave" (one topological wave solved) and "dss"; the points
	// "run" (one annealing run finished, with its convergence trajectory),
	// "merge", "join" (one dependency edge applied its DSS adjustments at a
	// wave boundary), "pool", "degrade", "replay" and the resilience
	// layer's "retry", "trip" and "fallback"; and the serving stack's spans.
	Name string
	// Device is the solver that produced the event ("da", "sa", ...).
	Device string
	// Label is the pipeline scope, e.g. "sub03" for the third partial
	// problem (see WithLabel).
	Label string
	// Run is the run index within a solve, where applicable.
	Run int
	// Dur is the span duration for span-style events (zero for points).
	Dur time.Duration
	// Sweeps counts Monte-Carlo sweeps/steps covered by the event.
	Sweeps int
	// Flips and Steps carry kernel acceptance counters: Flips accepted
	// moves out of Steps proposals.
	Flips, Steps int64
	// N is a generic count (queries in a bisection, samples decoded,
	// dirty re-materialisations, ...).
	N int
	// Value is the event's primary magnitude (best energy, applied DSS
	// savings, incumbent cost, pool utilisation, ...).
	Value float64
	// Extra is a secondary magnitude (invalid-sample count, discarded
	// savings, ...).
	Extra float64
	// Points is the convergence trajectory of "run" events.
	Points []ConvPoint
	// Trace, Span and Parent link the event into a request's span tree
	// (see span.go): span events carry all three, point events emitted
	// under a span carry Trace and Parent. Zero means un-traced; ids are
	// deterministic functions of the request seed, never wall-clock
	// randomness.
	Trace, Span, Parent uint64
	// Attrs are flat key/value span attributes (cache tier, degradation
	// reason, device routing); nil for point events.
	Attrs []Attr
}

// Sink receives trace events and routes them to a JSONL writer, an
// in-memory collector and/or a metrics registry. The nil *Sink is the
// disabled sink: every method is nil-safe and free, so call sites need no
// guards beyond not allocating event payloads (use Enabled for that).
//
// Sinks are safe for concurrent use; annealing runs on the worker pool emit
// from multiple goroutines. Event order in the trace therefore follows
// completion order, which may vary between executions — the *results* of the
// pipeline stay bit-identical, only the observational interleaving differs.
type Sink struct {
	mu      sync.Mutex
	start   time.Time
	w       io.Writer
	collect bool
	events  []Event
	reg     *Registry
	buf     []byte
	// forward chains events to another sink (see Chain), letting the
	// convergence figure collect in memory while a -trace file still
	// records the run.
	forward *Sink
}

// NewSink returns a sink writing JSONL trace lines to w (which may be nil
// for a metrics-only sink) and recording metrics into reg (which may be nil
// for a trace-only sink).
func NewSink(w io.Writer, reg *Registry) *Sink {
	return &Sink{start: time.Now(), w: w, reg: reg}
}

// NewCollector returns a sink that retains every event in memory for
// programmatic analysis (Events), recording metrics into reg when non-nil.
func NewCollector(reg *Registry) *Sink {
	return &Sink{start: time.Now(), collect: true, reg: reg}
}

// Chain forwards every event emitted on s to next as well. It returns s for
// convenience. Chaining a nil next is a no-op; chaining on a nil s returns
// nil. The chained sink adopts next's clock, so time offsets stamped
// through s (span starts, event times) align with events next records
// directly — one consistent timeline per trace file.
func (s *Sink) Chain(next *Sink) *Sink {
	if s == nil || next == nil {
		return s
	}
	s.mu.Lock()
	s.forward = next
	s.start = next.start
	s.mu.Unlock()
	return s
}

// Enabled reports whether s records anything. Callers use it to skip
// building event payloads (labels, per-run recorders) on the disabled path.
func (s *Sink) Enabled() bool { return s != nil }

// since converts an absolute time into the sink's relative clock (the
// stamp spans record as their start offset).
func (s *Sink) since(t time.Time) time.Duration { return t.Sub(s.start) }

// Metrics returns the sink's registry, or nil when disabled or trace-only.
func (s *Sink) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Emit records one event, stamping its relative time when unset.
func (s *Sink) Emit(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if e.T == 0 {
		e.T = time.Since(s.start)
	}
	if s.w != nil {
		s.buf = appendEventJSON(s.buf[:0], &e)
		s.w.Write(s.buf) //nolint:errcheck // tracing is best-effort
	}
	if s.collect {
		s.events = append(s.events, e)
	}
	fwd := s.forward
	s.mu.Unlock()
	fwd.Emit(e)
}

// Events returns a copy of the collected events (collector sinks only).
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Close flushes the underlying writer when it is buffered. Traces written
// through a bufio.Writer lose their tail without it, which is exactly what
// the CLIs' SIGINT handling must avoid.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// RunTrace accumulates one annealing run's convergence trajectory and
// acceptance counters. It is only ever allocated by an enabled sink
// (StartRun returns nil otherwise), so kernels hold a nil pointer on the
// disabled path and every method call is a single predictable branch.
type RunTrace struct {
	sink   *Sink
	device string
	label  string
	run    int
	points []ConvPoint
}

// StartRun opens a run trace for one annealing run of device. Returns nil —
// the free recorder — when the sink is disabled.
func (s *Sink) StartRun(device, label string, run int) *RunTrace {
	if s == nil {
		return nil
	}
	return &RunTrace{sink: s, device: device, label: label, run: run}
}

// Observe appends one convergence point: the run's incumbent (best-so-far)
// energy after the given sweep. Kernels call it whenever their best tracker
// improves, which is rare relative to the sweep count.
func (rt *RunTrace) Observe(sweep int, energy float64) {
	if rt == nil {
		return
	}
	rt.points = append(rt.points, ConvPoint{Sweep: sweep, Energy: energy})
}

// Finish emits the run's "run" event (trajectory, sweep count, acceptance
// counters) and feeds the metrics registry: sweep/flip/proposal counters
// per device plus the flip-acceptance histogram.
func (rt *RunTrace) Finish(sweeps int, flips, steps int64) {
	if rt == nil {
		return
	}
	e := Event{
		Name: "run", Device: rt.device, Label: rt.label, Run: rt.run,
		Sweeps: sweeps, Flips: flips, Steps: steps, Points: rt.points,
	}
	if len(rt.points) > 0 {
		e.Value = rt.points[len(rt.points)-1].Energy
	}
	rt.sink.Emit(e)
	if reg := rt.sink.Metrics(); reg != nil {
		reg.Counter("anneal.sweeps." + rt.device).Add(float64(sweeps))
		reg.Counter("anneal.flips." + rt.device).Add(float64(flips))
		reg.Counter("anneal.proposals." + rt.device).Add(float64(steps))
		if steps > 0 {
			reg.Histogram("anneal.acceptance." + rt.device).Observe(float64(flips) / float64(steps))
		}
	}
}

// Pool records one worker-pool dispatch: how much of the pool's theoretical
// capacity (workers × wall-clock) the runs actually used.
func (s *Sink) Pool(device, label string, runs, workers int, busy, wall time.Duration) {
	if s == nil {
		return
	}
	util := 0.0
	if wall > 0 && workers > 0 {
		util = busy.Seconds() / (wall.Seconds() * float64(workers))
	}
	s.Emit(Event{Name: "pool", Device: device, Label: label, N: runs, Run: workers, Dur: wall, Value: util})
	if reg := s.Metrics(); reg != nil {
		reg.Counter("pool.dispatches").Add(1)
		reg.Histogram("pool.utilisation").Observe(util)
	}
}

// sinkKey and labelKey carry the sink and the pipeline scope through
// context. Context is the carrier because it already flows through every
// layer (Solve(ctx, ...), Partition(ctx, ...)) — no signature changes, and
// a missing value means the disabled sink.
type sinkKey struct{}
type labelKey struct{}

// NewContext returns ctx carrying sink. A nil sink is allowed and keeps the
// context clean (FromContext then returns nil).
func NewContext(ctx context.Context, sink *Sink) context.Context {
	if sink == nil {
		return ctx
	}
	return context.WithValue(ctx, sinkKey{}, sink)
}

// FromContext returns the sink carried by ctx, or nil (the disabled sink).
func FromContext(ctx context.Context) *Sink {
	s, _ := ctx.Value(sinkKey{}).(*Sink)
	return s
}

// WithLabel returns ctx carrying a pipeline scope label (e.g. "sub03"),
// attached by the strategies so device-level events can be correlated with
// the partial problem they served. Callers guard with Sink.Enabled to avoid
// allocating labels on the disabled path.
func WithLabel(ctx context.Context, label string) context.Context {
	return context.WithValue(ctx, labelKey{}, label)
}

// LabelFromContext returns the pipeline scope label of ctx, if any.
func LabelFromContext(ctx context.Context) string {
	l, _ := ctx.Value(labelKey{}).(string)
	return l
}
