package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"incranneal/internal/solver"
)

// span is one timed interval of a traced pass. Every op has a root span
// ("op", from the op's due time to its completion), a child span around
// the public call ("solve" or "handler"), and device spans below that call.
// Op is -1 and Parent 0 for a device call whose context carried no op.
type span struct {
	Op     int    `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Vars   int    `json:"vars,omitempty"`
	Sweeps int    `json:"sweeps,omitempty"`
	Err    string `json:"error,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced pass's spans in memory; they are written out
// only when the pass ends, so tracing does no I/O while ops run.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newID reserves a span id, so children can name their parent before the
// parent span has ended.
func (r *recorder) newID() int64 { return r.ids.Add(1) }

// record stores a finished span covering [start, end].
func (r *recorder) record(s span, start, end time.Time) {
	s.Start = start.Sub(r.t0).Nanoseconds()
	s.End = end.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops every recorded span: the warm-up op of a traced pass runs
// through the same devices but is not part of the pass.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes the spans, one JSON object per line, to path.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parentKey carries the op index and the id of the span that device calls
// made under a context belong to.
type parentKey struct{}

type parentRef struct {
	op   int
	span int64
}

func withParent(ctx context.Context, op int, id int64) context.Context {
	return context.WithValue(ctx, parentKey{}, parentRef{op: op, span: id})
}

// selfTime is parent's duration minus the part of it that the union of
// children's intervals covers.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), parent.Start
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			covered += v[1] - end
			end = v[1]
		}
	}
	return parent.dur() - time.Duration(covered)
}

// device records one span per device call and otherwise forwards to the
// wrapped solver unchanged, so a traced solve returns the same bits as an
// untraced one.
type device struct {
	inner solver.Solver
	name  string
	rec   *recorder
}

// largeDevice is a device whose wrapped solver also ships its own
// decomposition; it forwards solver.LargeSolver, so wrapping never takes a
// capability away from the wrapped device.
type largeDevice struct {
	*device
	large solver.LargeSolver
}

// traced wraps inner so that each call is recorded in rec as a span named
// name, parented to the span the call's context carries.
func traced(inner solver.Solver, name string, rec *recorder) solver.Solver {
	d := &device{inner: inner, name: name, rec: rec}
	if ls, ok := inner.(solver.LargeSolver); ok {
		return &largeDevice{device: d, large: ls}
	}
	return d
}

func (d *device) Name() string  { return d.inner.Name() }
func (d *device) Capacity() int { return d.inner.Capacity() }

func (d *device) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	return d.call(ctx, req, d.inner.Solve)
}

func (d *largeDevice) SolveLarge(ctx context.Context, req solver.Request) (*solver.Result, error) {
	return d.call(ctx, req, d.large.SolveLarge)
}

func (d *device) call(ctx context.Context, req solver.Request, solve func(context.Context, solver.Request) (*solver.Result, error)) (*solver.Result, error) {
	s := span{Op: -1, ID: d.rec.newID(), Name: d.name}
	if ref, ok := ctx.Value(parentKey{}).(parentRef); ok {
		s.Op, s.Parent = ref.op, ref.span
	}
	if req.Model != nil {
		s.Vars = req.Model.NumVariables()
	}
	start := time.Now()
	res, err := solve(ctx, req)
	end := time.Now()
	if err != nil {
		s.Err = err.Error()
	} else if res != nil {
		s.Sweeps = res.Sweeps
	}
	d.rec.record(s, start, end)
	return res, err
}

// opSpans opens an op's root span and the span of its public call. The
// returned context parents device spans to the call; finish records both.
type opSpans struct {
	rec        *recorder
	op         int
	root, call int64 // span ids
	name       string
	due        time.Time
	callStart  time.Time
}

func (r *recorder) startOp(ctx context.Context, op int, call string, due time.Time) (context.Context, *opSpans) {
	if r == nil {
		return ctx, nil
	}
	o := &opSpans{rec: r, op: op, root: r.newID(), call: r.newID(), name: call, due: due, callStart: time.Now()}
	return withParent(ctx, op, o.call), o
}

// finish records the call span as ending at callEnd and the root span as
// ending now.
func (o *opSpans) finish(callEnd time.Time, err error) {
	if o == nil {
		return
	}
	s := span{Op: o.op, ID: o.call, Parent: o.root, Name: o.name}
	if err != nil {
		s.Err = err.Error()
	}
	o.rec.record(s, o.callStart, callEnd)
	o.rec.record(span{Op: o.op, ID: o.root, Name: "op"}, o.due, time.Now())
}
