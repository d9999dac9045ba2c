// Package serve is the long-running MQO service: an HTTP/JSON daemon that
// multiplexes concurrent problem streams over a bounded fleet of solver
// instances. It turns the repository's one-shot pipeline into the shape a
// DBMS actually needs — a shared, capacity-limited optimisation resource
// fielding recurring query batches — with three load-bearing pieces:
//
//   - Admission control. Requests enter a bounded queue; when it is full
//     (or the server is draining for shutdown) they are rejected
//     immediately with 503 + Retry-After instead of piling up. Every
//     request carries a deadline, propagated as a context through queueing
//     and solving, so work whose client has given up is never performed.
//   - A shared device fleet. A fixed pool of workers — each owning its own
//     per-device middleware stacks (resilience retry/timeout/breaker
//     state is per fleet slot) — pulls admitted jobs off the queue. The
//     fleet size bounds concurrent solves exactly like
//     solver.ForEachRun's worker cap bounds concurrent runs. Each solve
//     may use the whole Config.Parallelism, so a lone request uses every
//     core of an idle host; when solves overlap, the Go scheduler shares
//     the cores between them.
//   - Streaming sessions. Each job runs as a core.Session, so clients can
//     consume the incumbent trajectory (one point per merged partial
//     problem — the PR 4 convergence data) as NDJSON while the solve is
//     still running, then receive the final Outcome.
//
// Determinism carries over from the pipeline: a problem solved through the
// server yields a bit-identical Outcome to a standalone Solve with the
// same options and seed, for any fleet size, queue depth or concurrent
// load, because per-solve seeds fix results regardless of which worker
// runs the job or when (TestServeSolveMatchesStandalone).
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incranneal/internal/core"
	"incranneal/internal/devices"
	"incranneal/internal/faultinject"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solvecache"
	"incranneal/internal/solver"
)

// Config parameterises a Server. The zero value is usable: a 2-worker DA
// fleet behind a 64-deep queue with a 60 s default deadline.
type Config struct {
	// QueueDepth bounds the admission queue: requests beyond the fleet's
	// in-flight capacity wait here, and when it is full new requests are
	// rejected with 503 + Retry-After. Zero means 64.
	QueueDepth int
	// Fleet is the number of solver workers — the maximum concurrently
	// executing solves. Zero means 2.
	Fleet int
	// Device is the fleet's default annealing device: da, da-pt, sa, hqa
	// or va. Empty means da. Requests may override per solve.
	Device string
	// Fallback lists spare devices tried in order when a solve's primary
	// device fails terminally (the resilience Fallback chain).
	Fallback []string
	// Capacity overrides the device variable capacity (0 = device
	// default); it bounds partial-problem size exactly as in core.Options.
	Capacity int
	// DefaultRuns is the per-request default for annealing runs per
	// (partial) problem. Zero means 16, the paper's setting.
	DefaultRuns int
	// DefaultSweeps is the per-request default total sweep budget (0 =
	// device defaults).
	DefaultSweeps int
	// DefaultDeadline applies to requests that carry none. Zero means 60s.
	DefaultDeadline time.Duration
	// MaxDeadline caps any requested deadline. Zero means 10m.
	MaxDeadline time.Duration
	// RetryAfter is the hint returned with 503 rejections. Zero means 1s.
	RetryAfter time.Duration
	// Retries, SolveTimeout and Breaker configure the per-device
	// resilience stack each fleet worker wraps around its devices (see
	// resilience.Config). All zero means bare devices — the stack is
	// bit-transparent on the no-fault path either way.
	Retries      int
	SolveTimeout time.Duration
	Breaker      int
	// Seed drives the resilience middleware's deterministic backoff
	// jitter (never results).
	Seed int64
	// Parallelism caps the worker goroutines of each solve, in the
	// core.Options encoding: zero means GOMAXPROCS, negative sequential.
	// Every solve gets the whole cap, whatever the fleet size; Fleet
	// bounds how many solves run at once. Results are identical for any
	// setting.
	Parallelism int
	// CacheEntries enables the cross-solve cache shared by the whole
	// fleet: solves of structurally identical problems skip recursive
	// partitioning and rebind cached encoding skeletons, bounded to this
	// many distinct problem structures (LRU). Zero disables caching —
	// the default, preserving the bit-identical-to-standalone contract
	// for every request sequence; negative selects the default bound.
	CacheEntries int
	// WarmStartDrift additionally seeds annealing runs from the cached
	// incumbent when the relative weight drift is within
	// (0, WarmStartDrift]. Only meaningful with CacheEntries set; zero
	// disables warm starts.
	WarmStartDrift float64
	// Sink receives trace events and metrics for every solve the server
	// runs (queue depth, admission outcomes and request latency are
	// recorded in its Registry). Nil disables observation.
	Sink *obs.Sink
	// NewDevice overrides device construction (tests inject gated or
	// faulty solvers). Nil uses the built-in devices.
	NewDevice func(name string, capacity int) (solver.Solver, error)

	// JournalDir enables the crash-safety journal: every accepted request
	// is fsync'd to JournalDir/queue.journal before admission and
	// tombstoned once answered, and a restarting server re-runs the
	// unanswered remainder (at-least-once). Empty disables journaling —
	// behaviour is then identical to a journal-less server.
	JournalDir string
	// ShedTarget enables adaptive overload shedding: when the p99 queue
	// wait over a ~5s sliding window exceeds this target, low- and
	// normal-priority requests are rejected with 503 + Retry-After
	// (high-priority requests always pass). Zero disables shedding.
	ShedTarget time.Duration
	// DefaultPriority is the class of requests that carry none: low,
	// normal (the default) or high. Dequeue order is high before normal
	// before low, FIFO within a class.
	DefaultPriority string
	// WatchdogFactor arms a per-slot watchdog: a solve still running
	// after (remaining deadline at start) × WatchdogFactor has ignored
	// its cancellation, so the slot cancels it, waits WatchdogGrace, and
	// if the solve still has not returned abandons it — the client gets
	// an error, the slot is quarantined and a fresh worker (new device
	// stacks) replaces it. Zero disables the watchdog.
	WatchdogFactor float64
	// WatchdogGrace is the post-cancel wait before quarantining. Zero
	// means 2s.
	WatchdogGrace time.Duration
	// Chaos injects serve-layer faults — worker kills, slow workers,
	// journal write failures — for the chaos harness. Nil injects
	// nothing.
	Chaos *faultinject.Chaos
}

func (c Config) queueDepth() int { return orDefault(c.QueueDepth, 64) }
func (c Config) fleet() int      { return orDefault(c.Fleet, 2) }
func (c Config) device() string {
	if c.Device == "" {
		return "da"
	}
	return c.Device
}
func (c Config) defaultRuns() int { return orDefault(c.DefaultRuns, 16) }
func (c Config) defaultDeadline() time.Duration {
	if c.DefaultDeadline > 0 {
		return c.DefaultDeadline
	}
	return time.Minute
}
func (c Config) maxDeadline() time.Duration {
	if c.MaxDeadline > 0 {
		return c.MaxDeadline
	}
	return 10 * time.Minute
}
func (c Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return time.Second
}
func (c Config) watchdogGrace() time.Duration {
	if c.WatchdogGrace > 0 {
		return c.WatchdogGrace
	}
	return 2 * time.Second
}

// maxAttempts bounds how many times one request is attempted: a request
// may be (chaos-)killed and requeued until its final attempt, which always
// runs unkilled.
const maxAttempts = 3

func orDefault(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

// jobResult is what a fleet worker reports back to the waiting handler.
type jobResult struct {
	out *core.Outcome
	err error
}

// job is one admitted solve travelling from handler to fleet worker.
type job struct {
	id       string
	problem  *mqo.Problem
	opt      core.Options // Device left nil; the worker fills it in
	strategy string
	device   string
	// ctx carries the request deadline, the client-disconnect signal and —
	// when the server observes — the request's root span.
	ctx      context.Context
	admitted time.Time
	// enqueued is when the current attempt entered the queue (admission or
	// chaos requeue); admitted stays the original admission time.
	enqueued time.Time
	// priority is the job's dequeue class (priorityLow/Normal/High).
	priority int
	// attempts counts solve attempts so far; chaos kills stop once
	// attempts+1 reaches maxAttempts.
	attempts int
	// replay marks a job rebuilt from the journal after a restart: its
	// original client is gone, so a background drainer consumes it.
	replay bool
	// span is the request's root span; queueSpan covers admission to worker
	// pickup. Both nil when the server runs without a sink.
	span      *obs.Span
	queueSpan *obs.Span
	// sess hands the running Session to the handler (capacity 1; closed
	// without a send when the job dies before starting, e.g. its deadline
	// expired while queued).
	sess chan *core.Session
	// result delivers the final outcome or error (capacity 1).
	result chan jobResult
}

// Server multiplexes MQO solves over a bounded solver fleet behind an
// HTTP/JSON interface. Construct with New, expose with Handler, Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg   Config
	queue *admissionQueue
	mux   *http.ServeMux
	// cache is the fleet-wide cross-solve cache (nil when disabled); all
	// workers share it so any slot can reuse any slot's partitionings,
	// skeletons and incumbents.
	cache *solvecache.Cache
	// shed gates admissions on observed queue waits (nil = no shedding).
	shed *shedder
	// journal is the crash-safety admission journal (nil = disabled).
	journal *journal

	mu       sync.RWMutex
	draining bool

	// replaying is true from startup until every journal-replayed request
	// has been answered; /readyz reports 503 meanwhile.
	replaying atomic.Bool
	replayWG  sync.WaitGroup

	workers  sync.WaitGroup // fleet workers
	inflight sync.WaitGroup // admitted jobs not yet answered

	httpSrv *http.Server
	ids     idGen
}

// New validates cfg, starts the fleet workers and returns a Server ready
// to accept requests. The returned server must eventually be Shutdown to
// stop the fleet.
func New(cfg Config) (*Server, error) {
	if _, err := cfg.newRawDevice(cfg.device(), cfg.Capacity); err != nil {
		return nil, err
	}
	for _, fb := range cfg.Fallback {
		if _, err := cfg.newRawDevice(fb, cfg.Capacity); err != nil {
			return nil, fmt.Errorf("fallback: %w", err)
		}
	}
	if _, ok := parsePriority(cfg.DefaultPriority, priorityNormal); !ok {
		return nil, fmt.Errorf("serve: unknown default priority %q (want low, normal or high)", cfg.DefaultPriority)
	}
	s := &Server{
		cfg:   cfg,
		queue: newAdmissionQueue(cfg.queueDepth()),
		shed:  newShedder(cfg.ShedTarget),
	}
	if cfg.CacheEntries != 0 {
		n := cfg.CacheEntries
		if n < 0 {
			n = 0 // solvecache.New's default bound
		}
		s.cache = solvecache.New(n)
		s.cache.Publish(s.registry())
	}
	s.mux = s.routes()

	var orphans []journalRecord
	if cfg.JournalDir != "" {
		var err error
		s.journal, orphans, err = openJournal(cfg.JournalDir, cfg.Chaos)
		if err != nil {
			return nil, err
		}
		s.ids.n = s.journal.maxID
	}
	for i := 0; i < cfg.fleet(); i++ {
		s.workers.Add(1)
		go s.worker(i)
	}
	if len(orphans) > 0 {
		s.replayOrphans(orphans)
	}
	return s, nil
}

// replayOrphans re-admits the journal's unanswered requests. Their clients
// are gone, so each job gets a background drainer that consumes the
// session and result, records the terminal metrics and tombstones the id.
// /readyz reports 503 until the last replay is answered.
func (s *Server) replayOrphans(orphans []journalRecord) {
	reg := s.registry()
	s.replaying.Store(true)
	for i := range orphans {
		rec := orphans[i]
		if rec.Request == nil || rec.Request.Problem == nil {
			s.journal.done(rec.ID)
			continue
		}
		// Replays run under a fresh default deadline: the journal does not
		// preserve how much of the original deadline was left, and a crashed
		// daemon's clock tells nothing useful about the client's.
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.defaultDeadline())
		j, errStatus := s.prepareJob(rec.Request, rec.ID, ctx)
		if errStatus != nil {
			cancel()
			s.journal.done(rec.ID)
			continue
		}
		j.priority = rec.Priority
		j.replay = true
		if ok, _ := s.admit(j); !ok {
			cancel()
			s.journal.done(rec.ID)
			continue
		}
		reg.Counter("serve.journal.replayed").Add(1)
		s.replayWG.Add(1)
		go func() {
			defer s.replayWG.Done()
			defer cancel()
			defer s.inflight.Done()
			if sess, ok := <-j.sess; ok && sess != nil {
				for range sess.Incumbents() {
				}
			}
			res := <-j.result
			s.finishMetrics(j, res)
		}()
	}
	go func() {
		s.replayWG.Wait()
		s.replaying.Store(false)
	}()
}

// newRawDevice constructs one bare device by name: the NewDevice hook if
// set, else the device catalogue.
func (c Config) newRawDevice(name string, capacity int) (solver.Solver, error) {
	if c.NewDevice != nil {
		return c.NewDevice(name, capacity)
	}
	return devices.New(name, capacity)
}

// newStack builds the full per-device middleware stack for one fleet
// slot: (primary, fallbacks...) under the configured resilience layers.
// Breaker and retry state live inside the returned stack, so each worker
// owning its own stacks keeps device health tracking per fleet slot.
func (s *Server) newStack(primary string, slot int) (solver.Solver, error) {
	mw, err := devices.Stack{
		Retries:      s.cfg.Retries,
		SolveTimeout: s.cfg.SolveTimeout,
		Breaker:      s.cfg.Breaker,
		Fallback:     s.cfg.Fallback,
		Seed:         s.cfg.Seed + int64(slot)*7919,
		Capacity:     s.cfg.Capacity,
	}.Middleware(s.cfg.newRawDevice)
	if err != nil {
		return nil, err
	}
	dev, err := s.cfg.newRawDevice(primary, s.cfg.Capacity)
	if err != nil {
		return nil, err
	}
	return mw(dev), nil
}

// worker is one fleet slot: it pulls admitted jobs off the queue and runs
// each as a core.Session on its own device stacks until the queue closes.
// A quarantined slot (watchdog abandonment) exits after spawning its
// replacement, so wedged device state never serves another request.
func (s *Server) worker(slot int) {
	defer s.workers.Done()
	stacks := map[string]solver.Solver{}
	reg := s.registry()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		reg.Gauge("serve.queue.depth").Set(float64(s.queue.len()))
		// Worker pickup closes the request's queue-wait span and feeds the
		// queue-wait quantile histogram (and the shedder's window)
		// regardless of how the job proceeds.
		wait := time.Since(j.enqueued)
		j.queueSpan.End()
		j.queueSpan = nil
		reg.Histogram("serve.queue.wait_ms").Observe(wait.Seconds() * 1e3)
		s.shed.observe(wait)
		if err := j.ctx.Err(); err != nil {
			// The client's deadline expired (or it disconnected) while the
			// job sat in the queue: answer without solving.
			reg.Counter("serve.admission.expired_in_queue").Add(1)
			j.span.Attr("expired", "queue")
			close(j.sess)
			j.result <- jobResult{err: fmt.Errorf("serve: request expired in queue after %v: %w", wait.Round(time.Millisecond), err)}
			continue
		}
		if quarantined := s.runJob(slot, stacks, j); quarantined {
			s.workers.Add(1)
			go s.worker(slot)
			return
		}
	}
}

// runJob executes one dequeued job on this slot's device stacks. It
// reports true when the slot must be quarantined: the solve ignored both
// its deadline and the watchdog's cancellation, so the worker abandoned it
// and a fresh slot (new stacks) takes over the queue.
func (s *Server) runJob(slot int, stacks map[string]solver.Solver, j *job) (quarantined bool) {
	reg := s.registry()
	// One chaos schedule step per attempt. Worker-kill: decide before the
	// session is handed to the client's handler, so the handler only ever
	// sees the attempt that runs to completion. A killed attempt is
	// cancelled after its first checkpoint, its (valid-but-divergent,
	// best-so-far) result is discarded, and the job requeues at the head of
	// its class with Options.Resume set — the next attempt replays the
	// finished partial problems bit-exactly and solves the rest. Only the
	// incremental and parallel strategies checkpoint, and the final
	// permitted attempt always runs unkilled. Slow-worker: stall before the
	// solve starts, driving queue waits up so the shedder and watchdog
	// paths see real pressure.
	kill, delay := s.cfg.Chaos.NextSolve(j.strategy != core.StrategyDefault && j.attempts+1 < maxAttempts)
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-j.ctx.Done():
			t.Stop()
		}
	}
	stack, ok := stacks[j.device]
	if !ok {
		var err error
		stack, err = s.newStack(j.device, slot)
		if err != nil {
			close(j.sess)
			j.result <- jobResult{err: err}
			return false
		}
		stacks[j.device] = stack
	}
	opt := j.opt
	opt.Device = stack
	if s.cache != nil && opt.Resume == nil {
		opt.Cache = s.cache
		opt.WarmStartDrift = s.cfg.WarmStartDrift
	}

	// Only an attempt that will be killed checkpoints: no other attempt is
	// ever resumed.
	var killCh chan struct{}
	var last *core.Checkpoint
	if kill {
		killCh = make(chan struct{}, 1)
		opt.CheckpointFunc = func(cp *core.Checkpoint) {
			last = cp
			select {
			case killCh <- struct{}{}:
			default:
			}
		}
	}

	solveCtx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	sess := core.NewSession(j.problem, opt)
	sess.Strategy = j.strategy
	ctx := solveCtx
	var wspan *obs.Span
	if s.cfg.Sink.Enabled() {
		ctx = obs.NewContext(ctx, s.cfg.Sink)
		// The worker-slot span covers device-stack residency: the session
		// span (and the whole pipeline tree) hangs off it. Slot
		// attribution answers "which fleet slot's breaker/retry state
		// served this request".
		ctx, wspan = s.cfg.Sink.StartSpan(ctx, "worker")
		wspan.Attr("slot", strconv.Itoa(slot)).Attr("device", j.device)
	}
	if err := sess.Start(ctx); err != nil {
		wspan.Attr("error", err.Error()).End()
		close(j.sess)
		j.result <- jobResult{err: err}
		return false
	}

	if kill {
		select {
		case <-killCh:
			// First checkpoint landed: kill the attempt and requeue from the
			// last checkpoint it recorded. The solve writes last before Wait
			// returns, so reading it afterwards needs no lock.
			cancel()
			sess.Wait() //nolint:errcheck // the killed attempt's result is discarded by design
			j.attempts++
			j.opt.Resume = last
			reg.Counter("serve.chaos.worker_kills").Add(1)
			wspan.Attr("chaos", "killed").End()
			s.queue.pushFront(j)
			return false
		case <-sess.Done():
			// The solve finished before any checkpoint (unpartitioned
			// problem): nothing to kill, deliver normally.
		}
	}

	j.sess <- sess

	// Watchdog: a solve that runs past its remaining deadline times
	// WatchdogFactor has ignored context cancellation (the deadline fired
	// long ago). Cancel explicitly, grant a grace period, then abandon
	// the job — answer the client, quarantine the slot.
	if f := s.cfg.WatchdogFactor; f > 0 {
		if dl, ok := j.ctx.Deadline(); ok {
			budget := time.Duration(float64(time.Until(dl)) * f)
			if budget > 0 {
				wd := time.NewTimer(budget)
				select {
				case <-sess.Done():
					wd.Stop()
				case <-wd.C:
					cancel()
					grace := time.NewTimer(s.cfg.watchdogGrace())
					select {
					case <-sess.Done():
						grace.Stop()
					case <-grace.C:
						wspan.Attr("watchdog", "quarantined").End()
						// Count before answering, so a client that reads the
						// metrics after its 504 sees the quarantine.
						reg.Counter("serve.worker.quarantined").Add(1)
						j.result <- jobResult{err: fmt.Errorf(
							"serve: solve overran its deadline by %.1fx and ignored cancellation; worker slot %d quarantined",
							f, slot)}
						return true
					}
				}
			}
		}
	}

	out, err := sess.Wait()
	if err == nil {
		wspan.Attr("cache.tier", out.Cache.Tier())
		reg.Histogram("serve.solve.latency_ms").Observe(out.Elapsed.Seconds() * 1e3)
	}
	wspan.End()
	j.result <- jobResult{out: out, err: err}
	return false
}

// admit enqueues j unless the server is draining or the queue is full.
// The reason string feeds the admission-outcome metrics and the 503 body.
// On success the job is registered in the inflight WaitGroup while the
// lock is still held, so Shutdown (which takes the write lock before
// waiting) can never miss an admitted job; the handler must balance with
// inflight.Done once the response is written.
func (s *Server) admit(j *job) (ok bool, reason string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false, "draining"
	}
	if !s.queue.push(j) {
		return false, "queue full"
	}
	s.inflight.Add(1)
	// Eager deadline eviction: when the request's context ends while the
	// job still sits in the queue, take it out immediately instead of
	// letting a worker discover the corpse at pickup. remove-vs-pop under
	// the queue mutex guarantees exactly one side answers the client.
	stop := context.AfterFunc(j.ctx, func() {
		if !s.queue.remove(j) {
			return // a worker (or chaos requeue) owns it
		}
		s.registry().Counter("serve.admission.evicted_expired").Add(1)
		j.queueSpan.Attr("evicted", "expired").End()
		j.span.Attr("expired", "queue")
		close(j.sess)
		j.result <- jobResult{err: fmt.Errorf(
			"serve: request expired in queue after %v: %w",
			time.Since(j.enqueued).Round(time.Millisecond), j.ctx.Err())}
	})
	_ = stop // the AfterFunc disarms itself with the request context
	return true, ""
}

func (s *Server) registry() *obs.Registry { return s.cfg.Sink.Metrics() }

// queueDepth reports the current number of queued (not yet running) jobs.
func (s *Server) queueDepth() int { return s.queue.len() }

// Handler returns the server's HTTP handler, for mounting on an existing
// listener or an httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// headerTimeout bounds how long a connection may take to send a request's
// headers, so a client that trickles them cannot hold the connection's
// goroutine indefinitely.
const headerTimeout = 10 * time.Second

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: headerTimeout}
	srv := s.httpSrv
	s.mu.Unlock()
	return srv.Serve(l)
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains the server gracefully: new requests are rejected with
// 503 immediately, already-admitted jobs run to completion and their
// responses are delivered, then the fleet exits. ctx bounds the wait for
// in-flight work; on expiry the remaining solves are cancelled through
// their request contexts by the closing HTTP server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	httpSrv := s.httpSrv
	s.mu.Unlock()
	if already {
		return nil
	}
	// No admit can be in flight past this point (admit holds the read
	// lock while enqueuing), so closing the queue is safe; workers drain
	// the remaining jobs and exit. Chaos requeues still land (pushFront
	// ignores the closed flag) and are drained before the fleet exits.
	s.queue.close()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.journal.close()
	if httpSrv != nil {
		return httpSrv.Shutdown(ctx)
	}
	return nil
}

// idGen issues short request ids (r000001, r000002, ...).
type idGen struct {
	mu sync.Mutex
	n  int64
}

func (g *idGen) next() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	return fmt.Sprintf("r%06d", g.n)
}
