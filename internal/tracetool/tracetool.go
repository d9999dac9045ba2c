// Package tracetool reads the JSONL traces the obs package writes and
// reconstructs per-request span trees for offline analysis: phase
// breakdowns, critical paths through the DAG waves, slowest-request
// rankings and phase×device latency aggregates. It is the library behind
// cmd/mqotrace and the span-tree well-formedness tests.
//
// The input format is the obs JSONL event stream (one object per line).
// Span events carry "trace", "span" and optionally "parent" ids as
// fixed-width hex strings; point events carry "trace" and "parent" only.
// Un-traced events (no ids) are ignored — a mixed trace file from a
// partially instrumented run still parses.
package tracetool

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Event is one parsed JSONL trace line. Durations are in seconds, exactly
// as encoded; helpers convert to time.Duration.
type Event struct {
	T      float64           `json:"t"`
	Name   string            `json:"ev"`
	Device string            `json:"dev"`
	Label  string            `json:"label"`
	Run    int               `json:"run"`
	Dur    float64           `json:"dur"`
	Sweeps int               `json:"sweeps"`
	N      int               `json:"n"`
	Value  float64           `json:"value"`
	Extra  float64           `json:"extra"`
	Trace  string            `json:"trace"`
	Span   string            `json:"span"`
	Parent string            `json:"parent"`
	Attrs  map[string]string `json:"attrs"`
}

// Start and End are the event's offsets within its trace file's clock.
func (e *Event) Start() time.Duration { return time.Duration(e.T * float64(time.Second)) }
func (e *Event) End() time.Duration   { return e.Start() + e.Duration() }
func (e *Event) Duration() time.Duration {
	return time.Duration(e.Dur * float64(time.Second))
}

// Parse reads every event of a JSONL trace. Blank lines are skipped;
// malformed lines fail with their line number, since a truncated tail
// usually means a trace written without Sink.Close.
func Parse(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// Node is one span of a reconstructed tree, with its child spans and the
// point events (merge, join, degrade, ...) parented on it.
type Node struct {
	Event
	Children []*Node
	Points   []Event
}

// Trace is one request's reconstructed span forest. A well-formed trace
// has exactly one root (the serve "request" span, or the stand-alone
// session span); Orphans collects span events whose parent id never
// appeared — a tree invariant violation the tests assert empty.
type Trace struct {
	ID      string
	Roots   []*Node
	Spans   map[string]*Node
	Orphans []Event
}

// TotalDuration is the latest end offset over the trace's roots.
func (t *Trace) TotalDuration() time.Duration {
	var max time.Duration
	for _, r := range t.Roots {
		if d := r.Duration(); d > max {
			max = d
		}
	}
	return max
}

// BuildForest groups events by trace id and links spans into trees,
// preserving first-appearance order of traces. Events without a trace id
// are dropped; sibling order within a node is by start offset (stable for
// equal starts, so reconstruction is deterministic for a given file).
func BuildForest(events []Event) []*Trace {
	byID := map[string]*Trace{}
	var order []*Trace
	traceOf := func(id string) *Trace {
		t, ok := byID[id]
		if !ok {
			t = &Trace{ID: id, Spans: map[string]*Node{}}
			byID[id] = t
			order = append(order, t)
		}
		return t
	}
	// First pass: materialise span nodes (events carrying a span id).
	for _, e := range events {
		if e.Trace == "" || e.Span == "" {
			continue
		}
		traceOf(e.Trace).Spans[e.Span] = &Node{Event: e}
	}
	// Second pass: link children and attach point events.
	for _, e := range events {
		if e.Trace == "" {
			continue
		}
		t := traceOf(e.Trace)
		if e.Span != "" {
			n := t.Spans[e.Span]
			if e.Parent == "" {
				t.Roots = append(t.Roots, n)
			} else if p, ok := t.Spans[e.Parent]; ok {
				p.Children = append(p.Children, n)
			} else {
				t.Orphans = append(t.Orphans, e)
			}
			continue
		}
		if p, ok := t.Spans[e.Parent]; ok {
			p.Points = append(p.Points, e)
		} else {
			t.Orphans = append(t.Orphans, e)
		}
	}
	for _, t := range order {
		for _, n := range t.Spans {
			sort.SliceStable(n.Children, func(i, j int) bool {
				return n.Children[i].Start() < n.Children[j].Start()
			})
		}
		sort.SliceStable(t.Roots, func(i, j int) bool { return t.Roots[i].Start() < t.Roots[j].Start() })
	}
	return order
}

// WellFormed checks the span-tree invariants of every trace: at least one
// root, no orphaned span or point events (every parent id resolves), and
// no span that is its own ancestor. It returns the first violation.
func WellFormed(traces []*Trace) error {
	for _, t := range traces {
		if len(t.Roots) == 0 && len(t.Spans) > 0 {
			return fmt.Errorf("trace %s: no root span among %d spans", t.ID, len(t.Spans))
		}
		if len(t.Orphans) > 0 {
			o := t.Orphans[0]
			return fmt.Errorf("trace %s: %d orphaned events (first: %q parent %s)", t.ID, len(t.Orphans), o.Name, o.Parent)
		}
		reachable := 0
		seen := map[string]bool{}
		var walk func(n *Node) error
		walk = func(n *Node) error {
			if seen[n.Span] {
				return fmt.Errorf("trace %s: span %s reached twice (cycle or duplicate id)", t.ID, n.Span)
			}
			seen[n.Span] = true
			reachable++
			for _, c := range n.Children {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		for _, r := range t.Roots {
			if err := walk(r); err != nil {
				return err
			}
		}
		if reachable != len(t.Spans) {
			return fmt.Errorf("trace %s: %d of %d spans unreachable from roots", t.ID, len(t.Spans)-reachable, len(t.Spans))
		}
	}
	return nil
}

// CriticalPath walks from root to a leaf, at each level descending into
// the child that ends last — the chain of spans that bounded the request's
// wall-clock. For the DAG schedule this descends through the last-ending
// wave into its slowest sub-problem and device solve.
func CriticalPath(root *Node) []*Node {
	path := []*Node{root}
	cur := root
	for len(cur.Children) > 0 {
		best := cur.Children[0]
		for _, c := range cur.Children[1:] {
			if c.End() > best.End() {
				best = c
			}
		}
		path = append(path, best)
		cur = best
	}
	return path
}

// PhaseBreakdown sums span durations by span name over a trace —
// inclusive durations, so nested phases (wave ⊃ sub ⊃ anneal) each report
// their own total and the table reads as "time attributable to phase X".
func PhaseBreakdown(t *Trace) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, n := range t.Spans {
		out[n.Name] += n.Duration()
	}
	return out
}

// PhaseDevice is one cell of the aggregate phase×device latency summary.
type PhaseDevice struct {
	Phase, Device string
	Count         int
	Total         time.Duration
}

// AggregatePhaseDevice sums span durations by (phase, device) across all
// traces; spans without a device attribute aggregate under "-". Sorted by
// phase then device for stable rendering.
func AggregatePhaseDevice(traces []*Trace) []PhaseDevice {
	type key struct{ phase, dev string }
	agg := map[key]*PhaseDevice{}
	for _, t := range traces {
		for _, n := range t.Spans {
			dev := n.Device
			if dev == "" {
				dev = n.Attrs["device"]
			}
			if dev == "" {
				dev = "-"
			}
			k := key{n.Name, dev}
			c, ok := agg[k]
			if !ok {
				c = &PhaseDevice{Phase: n.Name, Device: dev}
				agg[k] = c
			}
			c.Count++
			c.Total += n.Duration()
		}
	}
	out := make([]PhaseDevice, 0, len(agg))
	for _, c := range agg {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Device < out[j].Device
	})
	return out
}
