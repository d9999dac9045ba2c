package obs

import (
	"context"
	"strings"
	"testing"
)

func TestSpanDisabledIsFree(t *testing.T) {
	var s *Sink
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, sp := s.StartTrace(ctx, "request", 7)
		if ctx2 != ctx || sp != nil {
			t.Error("disabled StartTrace not a no-op")
		}
		ctx3, sp2 := s.StartSpan(ctx, "child")
		if ctx3 != ctx || sp2 != nil {
			t.Error("disabled StartSpan not a no-op")
		}
		sp.Attr("k", "v").End()
		sp2.EndWith(Event{Name: "x"})
		s.EmitCtx(ctx, Event{})
		if sp.ID() != 0 || sp.TraceID() != 0 {
			t.Error("nil span has identity")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %.1f times per run, want 0", allocs)
	}
}

func TestPhaseDisabledIsFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, ph := StartPhase(ctx, "anneal")
		if ctx2 != ctx {
			t.Error("disabled StartPhase changed the context")
		}
		ph.Attr("k", "v").End(Event{N: 1})
		_, ph = StartPhaseIndexed(ctx, "wave", 3)
		ph.Fail("device")
	})
	if allocs != 0 {
		t.Fatalf("disabled phase path allocated %.1f times per run, want 0", allocs)
	}
}

// TestPhaseRecordsOneDuration pins the single clock: the duration End
// returns is the flat event's Dur outside a trace and the span's Dur inside
// one, and each completed phase is one latency sample; a failed phase only
// closes its span, with the error attribute.
func TestPhaseRecordsOneDuration(t *testing.T) {
	reg := NewRegistry()
	s := NewCollector(reg)
	ctx := NewContext(context.Background(), s)
	_, flat := StartPhase(WithLabel(ctx, "sub02"), "encode")
	dFlat := flat.End(Event{N: 2})
	tctx, root := s.StartTrace(ctx, "request", 3)
	_, traced := StartPhase(tctx, "encode")
	dSpan := traced.End(Event{N: 2})
	_, failed := StartPhase(tctx, "anneal")
	failed.Fail("device")
	root.End()
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want flat encode, encode span, anneal span, root", len(evs))
	}
	if e := evs[0]; e.Name != "encode" || e.Label != "sub02" || e.Dur != dFlat || e.N != 2 || e.Span != 0 {
		t.Errorf("flat phase event = %+v, want Dur %v", e, dFlat)
	}
	if e := evs[1]; e.Name != "encode" || e.Dur != dSpan || e.Span == 0 || e.Parent != root.ID() {
		t.Errorf("phase span = %+v, want Dur %v under the root", e, dSpan)
	}
	if e := evs[2]; e.Name != "anneal" || len(e.Attrs) != 1 || e.Attrs[0] != (Attr{"error", "device"}) {
		t.Errorf("failed phase span = %+v", e)
	}
	if n := reg.Histogram("latency.encode_ms").Snapshot().Count; n != 2 {
		t.Errorf("latency.encode_ms count = %d, want 2", n)
	}
	if n := reg.Histogram("latency.anneal_ms").Snapshot().Count; n != 0 {
		t.Errorf("failed phase observed latency.anneal_ms %d times", n)
	}
}

// StartSpan without a parent span in context is a no-op even on an enabled
// sink: spans only exist inside a trace.
func TestStartSpanWithoutParentIsNoop(t *testing.T) {
	s := NewCollector(nil)
	ctx, sp := s.StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("span minted without a parent")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("context gained a span")
	}
	if got := s.Events(); len(got) != 0 {
		t.Fatalf("events emitted: %v", got)
	}
}

func TestTraceIDDeterministic(t *testing.T) {
	a := NewTraceID(42, "req-1")
	b := NewTraceID(42, "req-1")
	c := NewTraceID(42, "req-2")
	d := NewTraceID(43, "req-1")
	if a != b {
		t.Fatal("same inputs, different trace ids")
	}
	if a == c || a == d || c == d {
		t.Fatal("different inputs collide")
	}
	if NewTraceID(0, "") == 0 {
		t.Fatal("trace id zero")
	}
}

func TestSpanTreeDeterministicIDs(t *testing.T) {
	build := func() []Event {
		s := NewCollector(nil)
		ctx, root := s.StartTrace(context.Background(), "request", NewTraceID(7, "r"))
		wctx, wave := s.StartSpanIndexed(ctx, "wave", 0)
		_, sub := s.StartSpanIndexed(wctx, "sub", 3)
		sub.End()
		wave.End()
		root.Attr("cache", "cold").End()
		return s.Events()
	}
	a, b := build(), build()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("events = %d, %d; want 3 each", len(a), len(b))
	}
	for i := range a {
		if a[i].Trace != b[i].Trace || a[i].Span != b[i].Span || a[i].Parent != b[i].Parent {
			t.Fatalf("run-to-run span identity differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Tree shape: sub's parent is wave, wave's parent is root, root has none.
	sub, wave, root := a[0], a[1], a[2]
	if sub.Name != "sub" || wave.Name != "wave" || root.Name != "request" {
		t.Fatalf("event order: %v %v %v", sub.Name, wave.Name, root.Name)
	}
	if sub.Parent != wave.Span || wave.Parent != root.Span || root.Parent != 0 {
		t.Fatalf("broken tree: sub.parent=%x wave=%x wave.parent=%x root=%x",
			sub.Parent, wave.Span, wave.Parent, root.Span)
	}
	if sub.Trace != root.Trace || wave.Trace != root.Trace {
		t.Fatal("trace ids differ within one trace")
	}
	if root.Span == wave.Span || wave.Span == sub.Span || root.Span == 0 {
		t.Fatal("span ids not distinct")
	}
}

func TestStartSpanSequentialSiblingsDistinct(t *testing.T) {
	s := NewCollector(nil)
	ctx, root := s.StartTrace(context.Background(), "t", 1)
	_, a := s.StartSpan(ctx, "phase")
	_, b := s.StartSpan(ctx, "phase")
	if a.ID() == b.ID() {
		t.Fatal("same-named sequential siblings share an id")
	}
	a.End()
	b.End()
	root.End()
}

func TestSpanEndWithMergesPayload(t *testing.T) {
	s := NewCollector(nil)
	ctx, root := s.StartTrace(context.Background(), "request", 9)
	_, sp := s.StartSpan(ctx, "wave")
	sp.Attr("device", "da").EndWith(Event{N: 4, Value: 1.5})
	root.End()
	evs := s.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	w := evs[0]
	if w.Name != "wave" || w.N != 4 || w.Value != 1.5 {
		t.Fatalf("payload not merged: %+v", w)
	}
	if len(w.Attrs) != 1 || w.Attrs[0] != (Attr{"device", "da"}) {
		t.Fatalf("attrs = %+v", w.Attrs)
	}
	if w.Span == 0 || w.Trace == 0 || w.Parent == 0 {
		t.Fatalf("identity missing: %+v", w)
	}
	// Double End emits once.
	sp.End()
	if got := len(s.Events()); got != 2 {
		t.Fatalf("double End emitted: %d events", got)
	}
}

func TestEmitCtxStampsParent(t *testing.T) {
	s := NewCollector(nil)
	ctx, root := s.StartTrace(context.Background(), "request", 11)
	s.EmitCtx(ctx, Event{Name: "merge", Value: 3})
	root.End()
	evs := s.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	m := evs[0]
	if m.Name != "merge" || m.Trace != root.TraceID() || m.Parent != evs[1].Span {
		t.Fatalf("point event not linked: %+v", m)
	}
	if m.Span != 0 {
		t.Fatalf("point event has its own span id: %+v", m)
	}
}

func TestSpanJSONLEncoding(t *testing.T) {
	var sb strings.Builder
	s := NewSink(&sb, nil)
	ctx, root := s.StartTrace(context.Background(), "request", NewTraceID(5, "r"))
	_, sp := s.StartSpan(ctx, "solve")
	sp.Attr("tier", "warm").End()
	root.End()
	out := sb.String()
	for _, want := range []string{`"trace":"`, `"span":"`, `"parent":"`, `"attrs":{"tier":"warm"}`, `"ev":"solve"`, `"ev":"request"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}
