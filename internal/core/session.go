package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"incranneal/internal/mqo"
	"incranneal/internal/obs"
)

// Strategy names accepted by Session.Strategy.
const (
	StrategyIncremental = "incremental"
	StrategyParallel    = "parallel"
	StrategyDefault     = "default"
)

// Incumbent is one point of an in-progress solve's global-solution
// trajectory: the cost of the incumbent total solution after a partial
// problem merged. The partitioned strategies (incremental and parallel)
// emit one Incumbent per partial problem (their "merge" trace events carry
// exactly this data); every strategy additionally emits one final
// Incumbent when the solve completes. Because the incumbent covers only the
// queries merged so far, its Cost grows with Merged — the trajectory tracks
// coverage, not descent.
type Incumbent struct {
	// Sub is the index of the partial problem that just merged, or -1
	// when the point is not tied to one (final points, unpartitioned
	// solves).
	Sub int
	// Merged counts the partial problems merged into the incumbent so
	// far (equal to Outcome.NumPartitions on the final point).
	Merged int
	// Cost is the incumbent global solution's cost over the merged
	// queries.
	Cost float64
	// Elapsed is the time since the session started.
	Elapsed time.Duration
	// Final marks the synthetic completion point carrying the finished
	// Outcome's cost.
	Final bool
}

// Session is the problem-lifecycle object behind a single MQO solve:
// construct it with a problem and options, Start it, consume the incumbent
// stream while the solve progresses, and Wait for the final Outcome. It
// generalises the one-shot Solve* calls for callers — the serving layer
// foremost — that need progress visibility and a handle on an in-flight
// solve rather than a blocking function call:
//
//	sess := core.NewSession(p, opt)
//	if err := sess.Start(ctx); err != nil { ... }
//	for inc := range sess.Incumbents() {
//		fmt.Printf("merged %d: cost %.2f\n", inc.Merged, inc.Cost)
//	}
//	out, err := sess.Wait()
//
// A Session runs exactly one solve; it cannot be restarted or reused.
// Cancelling the Start context cancels the solve (devices return their
// best-so-far samples, per the solver cancellation contract).
//
// Determinism: a Session observes the solve through a merge hook of the
// wave executor and never feeds back into it, so its Outcome is
// bit-identical to calling the corresponding Solve* function directly with
// the same problem, options and seed — pinned by
// TestSessionMatchesSolveIncremental.
type Session struct {
	// Strategy selects the processing strategy: StrategyIncremental
	// (default), StrategyParallel or StrategyDefault. Must be set before
	// Start.
	Strategy string

	p   *mqo.Problem
	opt Options

	mu      sync.Mutex
	started bool

	incumbents chan Incumbent
	done       chan struct{}
	start      time.Time

	// out and err are written once, before done closes.
	out *Outcome
	err error
}

// NewSession prepares a solve of p under opt without starting it. The
// incumbent channel is buffered; see Incumbents for the drop policy.
func NewSession(p *mqo.Problem, opt Options) *Session {
	return &Session{
		Strategy:   StrategyIncremental,
		p:          p,
		opt:        opt,
		incumbents: make(chan Incumbent, 64),
		done:       make(chan struct{}),
	}
}

// Incumbents returns the stream of incumbent points. The channel is closed
// when the solve completes (after the final point). The stream is lossy by
// design: a consumer slower than the solve drops the oldest buffered
// points rather than stalling the pipeline — the final point is always
// delivered, so the finished cost is never lost. Consumers that need every
// point attach a collecting obs sink to the Start context instead.
func (s *Session) Incumbents() <-chan Incumbent { return s.incumbents }

// Start launches the solve in a background goroutine. It returns an error
// if the session was already started, the problem is nil or the strategy
// is unknown; the solve's own error is reported by Wait.
func (s *Session) Start(ctx context.Context) error {
	if s.p == nil {
		return fmt.Errorf("core: session has no problem")
	}
	solve, err := s.strategyFunc()
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("core: session already started")
	}
	s.started = true
	s.start = time.Now()
	s.opt.onMerge = func(inc Incumbent) {
		inc.Elapsed = time.Since(s.start)
		s.push(inc)
	}
	s.mu.Unlock()

	// Root the request's span tree. When the caller (serve's worker slot)
	// already opened a span, the session continues that trace; an observed
	// stand-alone session roots its own, with the trace id derived from the
	// solve seed and strategy so re-running a request reproduces identical
	// span identity. Unobserved sessions stay span-free.
	strategy := s.Strategy
	if strategy == "" {
		strategy = StrategyIncremental
	}
	sink := obs.FromContext(ctx)
	runCtx := ctx
	var span *obs.Span
	if obs.SpanFromContext(ctx) != nil {
		runCtx, span = sink.StartSpan(ctx, "session")
	} else if sink.Enabled() {
		runCtx, span = sink.StartTrace(ctx, "session", obs.NewTraceID(s.opt.Seed, strategy))
	}
	span.Attr("strategy", strategy)

	go func() {
		out, err := solve(runCtx, s.p, s.opt)
		s.out, s.err = out, err
		if err == nil {
			s.push(Incumbent{
				Sub:     -1,
				Merged:  out.NumPartitions,
				Cost:    out.Cost,
				Elapsed: time.Since(s.start),
				Final:   true,
			})
		}
		if span != nil {
			if err != nil {
				span.Attr("error", err.Error()).End()
			} else {
				// Cache-tier attribution and degradation count ride the
				// session span, so one trace line answers "why was this
				// request fast/slow/degraded".
				span.Attr("cache.tier", out.Cache.Tier())
				if n := len(out.Degradations); n > 0 {
					span.Attr("degraded", strconv.Itoa(n))
				}
				span.EndWith(obs.Event{N: out.NumPartitions, Value: out.Cost})
			}
		}
		if reg := sink.Metrics(); reg != nil {
			reg.Histogram("latency.solve_ms").Observe(time.Since(s.start).Seconds() * 1e3)
		}
		close(s.incumbents)
		close(s.done)
	}()
	return nil
}

// Wait blocks until the solve completes and returns its Outcome. Safe to
// call from multiple goroutines and after completion.
func (s *Session) Wait() (*Outcome, error) {
	<-s.done
	return s.out, s.err
}

// Problem returns the problem this session solves.
func (s *Session) Problem() *mqo.Problem { return s.p }

// ApplyDelta derives a fresh, unstarted Session solving s's problem with d
// applied, carrying over the options and strategy. When the options hold a
// cross-solve cache, the cached state of s's problem — partitioning,
// incumbent, encoding skeletons — is migrated to the delta'd structure, so
// the derived session re-partitions only the region the delta touched and
// can warm-start from the previous incumbent (drift permitting). The
// receiver is unaffected: a running solve keeps running, a finished one
// keeps its outcome. ApplyDelta may be called before or after Start.
func (s *Session) ApplyDelta(d mqo.Delta) (*Session, error) {
	np, dm, err := d.Apply(s.p)
	if err != nil {
		return nil, err
	}
	if s.opt.Cache != nil {
		s.opt.Cache.MigrateDelta(s.p, np, dm, s.opt.capacity())
	}
	ns := NewSession(np, s.opt)
	ns.Strategy = s.Strategy
	return ns, nil
}

// Run is Start followed by Wait: a drop-in replacement for the one-shot
// Solve* calls. The incumbent stream is still live during Run; callers
// that ignore it lose nothing (the stream buffer drops, never blocks).
func (s *Session) Run(ctx context.Context) (*Outcome, error) {
	if err := s.Start(ctx); err != nil {
		return nil, err
	}
	return s.Wait()
}

// Done returns a channel closed when the solve completes.
func (s *Session) Done() <-chan struct{} { return s.done }

func (s *Session) strategyFunc() (func(context.Context, *mqo.Problem, Options) (*Outcome, error), error) {
	switch s.Strategy {
	case "", StrategyIncremental:
		return SolveIncremental, nil
	case StrategyParallel:
		return SolveParallel, nil
	case StrategyDefault:
		return SolveDefault, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q (want %s, %s or %s)",
			s.Strategy, StrategyIncremental, StrategyParallel, StrategyDefault)
	}
}

// push delivers inc without ever blocking the pipeline goroutine: when the
// buffer is full the oldest point is dropped to make room. The merge hook
// runs on the wave executor's serial merge barrier (a single goroutine), so
// pushes do not race each other; only the consumer drains concurrently.
func (s *Session) push(inc Incumbent) {
	select {
	case s.incumbents <- inc:
		return
	default:
	}
	select {
	case <-s.incumbents:
	default:
	}
	select {
	case s.incumbents <- inc:
	default:
	}
}
