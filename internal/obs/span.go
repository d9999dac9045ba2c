package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A span is a named, timed scope of one request's
// journey through the serving stack — admission, queue wait, worker slot,
// session, partial-problem waves, device solves — linked into a tree by
// (TraceID, SpanID, parent SpanID). Spans ride the existing Sink as plain
// Events: End emits one event whose T is the span's *start* offset and Dur
// its length, so a JSONL trace replays the timeline and cmd/mqotrace can
// reconstruct per-request critical paths.
//
// Two contracts carry over from the rest of the package:
//
//   - Zero cost when disabled. StartSpan on a nil/absent sink returns the
//     original context and a nil *Span; every Span method is nil-safe, so
//     instrumented paths hold one predictable branch and allocate nothing.
//   - Deterministic identity. IDs never come from wall-clock time or a
//     global RNG: a trace id derives from the request seed and tag
//     (NewTraceID), and span ids hash down from their parent's id, the
//     span name and an explicit index (child counter or caller-provided),
//     so the same request produces the same tree on every run. Only the
//     recorded timings differ between executions.

// splitmix64 is the finalising mix of the SplitMix64 generator — a cheap,
// well-distributed 64-bit hash used for all span identity derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds s into a 64-bit value (FNV-1a).
func hashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// NewTraceID derives a deterministic trace id from a request seed and a
// tag (request id, problem name, ...). Identical inputs give identical
// ids; the result is never zero (zero means "no trace").
func NewTraceID(seed int64, tag string) uint64 {
	id := splitmix64(uint64(seed) ^ hashString(tag))
	if id == 0 {
		id = 1
	}
	return id
}

// Attr is one span attribute. Attributes are flat string pairs — enough
// for cache tiers, device names and degradation reasons — encoded as a
// JSON object on the span's event.
type Attr struct{ Key, Value string }

// Span is one open scope of a trace. Create with StartSpan/StartTrace,
// close with End (or EndWith to merge payload fields into the emitted
// event). The nil *Span is the disabled span; every method is free.
type Span struct {
	sink   *Sink
	name   string
	trace  uint64
	id     uint64
	parent uint64
	start  time.Time
	label  string
	attrs  []Attr
	// children counts child spans started without an explicit index, so
	// sequential StartSpan calls get distinct, deterministic ids.
	children atomic.Uint64
	ended    atomic.Bool
}

// spanKey carries the current span through context, next to the sink.
type spanKey struct{}

// SpanFromContext returns the innermost span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithSpan returns ctx carrying sp (no-op for a nil span).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// StartTrace opens a root span for a new trace. traceID should come from
// NewTraceID so identity stays deterministic. Disabled sinks return
// (ctx, nil), the free span.
func (s *Sink) StartTrace(ctx context.Context, name string, traceID uint64) (context.Context, *Span) {
	if s == nil {
		return ctx, nil
	}
	sp := &Span{
		sink: s, name: name, trace: traceID,
		id:    splitmix64(traceID ^ hashString(name)),
		start: time.Now(), label: LabelFromContext(ctx),
	}
	return ContextWithSpan(ctx, sp), sp
}

// StartSpan opens a child of the span in ctx. Without a parent span it is
// a no-op (returns ctx and nil): spans only exist inside a trace, so
// un-traced pipeline entry points stay span-free rather than minting
// nondeterministic root ids. The child id derives from the parent id, the
// name and the parent's running child count — deterministic as long as
// same-named siblings start in a fixed order; concurrent sibling creation
// should use StartSpanIndexed instead.
func (s *Sink) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if s == nil {
		return ctx, nil
	}
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return s.startChild(ctx, parent, name, parent.children.Add(1)-1)
}

// StartSpanIndexed opens a child of the span in ctx whose id derives from
// the caller-provided index instead of a creation counter — the right
// form when siblings start concurrently (wave workers, fleet slots):
// identity then depends only on (parent, name, idx), never on goroutine
// interleaving.
func (s *Sink) StartSpanIndexed(ctx context.Context, name string, idx int) (context.Context, *Span) {
	if s == nil {
		return ctx, nil
	}
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return s.startChild(ctx, parent, name, uint64(idx))
}

func (s *Sink) startChild(ctx context.Context, parent *Span, name string, idx uint64) (context.Context, *Span) {
	sp := &Span{
		sink: s, name: name, trace: parent.trace,
		id:     splitmix64(parent.id ^ hashString(name) ^ (idx + 0x51ed270b)),
		parent: parent.id,
		start:  time.Now(), label: LabelFromContext(ctx),
	}
	return ContextWithSpan(ctx, sp), sp
}

// Attr attaches a key/value pair to the span, returned for chaining.
// Nil-safe; call sites guard payload construction with Sink.Enabled (or a
// nil check on the span) to keep the disabled path allocation-free.
func (sp *Span) Attr(key, value string) *Span {
	if sp == nil {
		return nil
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	return sp
}

// TraceID returns the span's trace id (0 for the nil span).
func (sp *Span) TraceID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.trace
}

// ID returns the span's id (0 for the nil span).
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.id
}

// End closes the span and emits its event: Name is the span name, T the
// start offset, Dur the elapsed time. Ending twice emits once; ending the
// nil span is free.
func (sp *Span) End() { sp.EndWith(Event{}) }

// EndWith closes the span, merging e's payload fields (counts, values,
// device, ...) into the emitted event. e.Name defaults to the span name
// and the span's identity, timing and attributes always win, so one event
// serves as both the span record and the payload the pre-span trace
// format carried (waves, anneals).
func (sp *Span) EndWith(e Event) {
	if sp != nil {
		sp.end(e, time.Since(sp.start))
	}
}

// end is EndWith with the span's duration already read, so a Phase hands
// the span the same reading it returns to its caller.
func (sp *Span) end(e Event, d time.Duration) {
	if sp == nil || !sp.ended.CompareAndSwap(false, true) {
		return
	}
	if e.Name == "" {
		e.Name = sp.name
	}
	if e.Label == "" {
		e.Label = sp.label
	}
	e.Trace, e.Span, e.Parent = sp.trace, sp.id, sp.parent
	e.T = sp.sink.since(sp.start)
	e.Dur = d
	e.Attrs = sp.attrs
	sp.sink.Emit(e)
}

// EmitCtx emits e annotated with the trace identity of the span carried
// by ctx (the event becomes a point child of that span). Without a span —
// or on the disabled sink — it behaves exactly like Emit.
func (s *Sink) EmitCtx(ctx context.Context, e Event) {
	if s == nil {
		return
	}
	if sp := SpanFromContext(ctx); sp != nil {
		e.Trace, e.Parent = sp.trace, sp.id
	}
	s.Emit(e)
}

// Phase times one pipeline phase (partition, bisect, encode, anneal,
// decode, dag, wave, dss) with exactly two clock readings, and that one
// duration is every record of the phase: End returns it for the caller's
// PhaseTimings, stamps it as the Dur of the phase's span (or, outside a
// trace, of the flat event named after the phase) and observes it as the
// latency.<name>_ms histogram when the sink has a registry. On a nil sink
// a Phase only reads the clock and allocates nothing.
type Phase struct {
	sink  *Sink
	span  *Span
	name  string
	label string
	start time.Time
}

// StartPhase opens phase name under ctx: a child span when ctx carries one
// (returned in the context, so the phase's work nests below it), a flat
// event otherwise. Sibling phases get span ids by start order, as with
// StartSpan.
func StartPhase(ctx context.Context, name string) (context.Context, Phase) {
	s := FromContext(ctx)
	ctx, sp := s.StartSpan(ctx, name)
	return ctx, s.phase(ctx, sp, name)
}

// StartPhaseIndexed is StartPhase with the span id derived from idx, for
// phases whose siblings are numbered (the executor's waves).
func StartPhaseIndexed(ctx context.Context, name string, idx int) (context.Context, Phase) {
	s := FromContext(ctx)
	ctx, sp := s.StartSpanIndexed(ctx, name, idx)
	return ctx, s.phase(ctx, sp, name)
}

func (s *Sink) phase(ctx context.Context, sp *Span, name string) Phase {
	if sp != nil {
		return Phase{sink: s, span: sp, name: name, start: sp.start}
	}
	ph := Phase{sink: s, name: name, start: time.Now()}
	if s != nil {
		ph.label = LabelFromContext(ctx)
	}
	return ph
}

// Attr attaches a key/value pair to the phase's span (a no-op outside a
// trace), returned for chaining.
func (ph Phase) Attr(key, value string) Phase {
	ph.span.Attr(key, value)
	return ph
}

// End closes the phase, merging e's payload into its record, and returns
// the phase's duration. e.Name and e.Label default to the phase's.
func (ph Phase) End(e Event) time.Duration {
	d := time.Since(ph.start)
	if ph.sink == nil {
		return d
	}
	if ph.span != nil {
		ph.span.end(e, d)
	} else {
		if e.Name == "" {
			e.Name = ph.name
		}
		if e.Label == "" {
			e.Label = ph.label
		}
		e.Dur = d
		ph.sink.Emit(e)
	}
	if reg := ph.sink.Metrics(); reg != nil {
		reg.Histogram("latency." + ph.name + "_ms").Observe(d.Seconds() * 1e3)
	}
	return d
}

// Fail closes a phase that did not complete and returns its duration. Its
// span, if any, ends with an "error" attribute carrying reason; a failed
// phase is neither a flat event nor a latency sample.
func (ph Phase) Fail(reason string) time.Duration {
	d := time.Since(ph.start)
	ph.span.Attr("error", reason).end(Event{}, d)
	return d
}
