package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"context"

	"incranneal/internal/core"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
)

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Problem is the MQO instance in the mqogen/mqosolve interchange
	// format (planCosts grouped by query, savings over global plan
	// indices).
	Problem *mqo.Problem `json:"problem"`
	// Options tunes the solve; zero values take the server defaults.
	Options SolveOptions `json:"options"`
	// Stream switches the response to NDJSON event streaming (also
	// selectable with the ?stream=1 query parameter).
	Stream bool `json:"stream,omitempty"`
}

// SolveOptions is the per-request slice of core.Options the server
// exposes, plus scheduling fields (device, strategy, deadline).
type SolveOptions struct {
	// Device overrides the fleet's default device for this solve: da,
	// da-pt, sa, hqa or va.
	Device string `json:"device,omitempty"`
	// Strategy is incremental (default), parallel or default.
	Strategy string `json:"strategy,omitempty"`
	// Runs per (partial) problem; 0 takes the server default.
	Runs int `json:"runs,omitempty"`
	// TotalSweeps is the overall annealing budget; 0 takes the server
	// default (usually the device default).
	TotalSweeps int `json:"totalSweeps,omitempty"`
	// Seed pins the solve; identical problem+options+seed yield a
	// bit-identical outcome, through the server or standalone.
	Seed int64 `json:"seed,omitempty"`
	// Capacity overrides the device variable capacity (partial-problem
	// size bound); 0 takes the server setting.
	Capacity int `json:"capacity,omitempty"`
	// DeadlineMillis bounds queue wait + solve; 0 takes the server
	// default, values above the server maximum are clamped.
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
	// DisableDSS turns dynamic search steering off (ablation).
	DisableDSS bool `json:"disableDss,omitempty"`
	// Priority is the request's queue class: low, normal or high. Higher
	// classes dequeue first and high-priority requests bypass overload
	// shedding. Empty takes the server default (normal unless
	// configured).
	Priority string `json:"priority,omitempty"`
}

// SolveResponse is the final answer for one solve — the JSON shape of a
// core.Outcome plus serving metadata.
type SolveResponse struct {
	ID               string  `json:"id"`
	Strategy         string  `json:"strategy"`
	Device           string  `json:"device"`
	Cost             float64 `json:"cost"`
	Selected         []int   `json:"selected"`
	Partitions       int     `json:"partitions"`
	Sweeps           int     `json:"sweeps"`
	DiscardedSavings float64 `json:"discardedSavings"`
	ReappliedSavings float64 `json:"reappliedSavings"`
	Degradations     int     `json:"degradations"`
	// Cache reports the solve's cross-solve cache interaction (structure
	// hit, skeleton reuse, warm start); absent when caching is disabled.
	Cache *core.CacheOutcome `json:"cache,omitempty"`
	// QueueMillis is time spent waiting for a fleet slot; SolveMillis is
	// the solve itself; TotalMillis spans admission to response.
	QueueMillis int64 `json:"queueMillis"`
	SolveMillis int64 `json:"solveMillis"`
	TotalMillis int64 `json:"totalMillis"`
}

// StreamEvent is one NDJSON line of a streamed solve. Type is "accepted",
// "incumbent", "outcome" or "error"; exactly one of the payload fields is
// set per type.
type StreamEvent struct {
	Type string `json:"type"`
	// ID accompanies "accepted" and "error".
	ID string `json:"id,omitempty"`
	// QueueDepth accompanies "accepted": jobs queued ahead of this one.
	QueueDepth int `json:"queueDepth,omitempty"`
	// Merged, Cost and ElapsedMillis accompany "incumbent".
	Merged        int     `json:"merged,omitempty"`
	Sub           int     `json:"sub,omitempty"`
	Cost          float64 `json:"cost,omitempty"`
	ElapsedMillis int64   `json:"elapsedMillis,omitempty"`
	// Outcome accompanies "outcome".
	Outcome *SolveResponse `json:"outcome,omitempty"`
	// Error accompanies "error".
	Error string `json:"error,omitempty"`
}

// errorBody is the JSON error envelope of non-streamed failures.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retryAfterSeconds,omitempty"`
}

// Healthz is the GET /healthz body. /healthz is liveness — it answers 200
// whenever the process can serve HTTP, drain and journal replay included.
type Healthz struct {
	Status        string `json:"status"` // "ok" or "draining"
	QueueDepth    int    `json:"queueDepth"`
	QueueCapacity int    `json:"queueCapacity"`
	Fleet         int    `json:"fleet"`
	Device        string `json:"device"`
}

// Readyz is the GET /readyz body. /readyz is readiness — it answers 503
// while the server is draining for shutdown or still replaying its
// admission journal after a restart, and 200 only when new requests will
// be admitted and served promptly. Load balancers and the CI daemon smoke
// poll this, not /healthz.
type Readyz struct {
	Status     string `json:"status"` // "ok", "draining" or "replaying"
	QueueDepth int    `json:"queueDepth"`
	Replaying  bool   `json:"replaying"`
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, Healthz{
		Status:        status,
		QueueDepth:    s.queueDepth(),
		QueueCapacity: s.cfg.queueDepth(),
		Fleet:         s.cfg.fleet(),
		Device:        s.cfg.device(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	replaying := s.replaying.Load()
	body := Readyz{Status: "ok", QueueDepth: s.queueDepth(), Replaying: replaying}
	status := http.StatusOK
	switch {
	case draining:
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	case replaying:
		body.Status = "replaying"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	if reg == nil {
		writeJSON(w, http.StatusOK, map[string]any{"metrics": "disabled (start the server with a metrics sink)"})
		return
	}
	writeJSON(w, http.StatusOK, reg.Snapshot())
}

// handleMetricsz serves the registry in the Prometheus text exposition
// format (see obs.WritePrometheus for the naming scheme and
// docs/mqoserve.md for the metric reference). The daemon always runs with
// a metrics sink, so scrapers only see 503 on a deliberately sink-free
// embedded server.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	if reg == nil {
		http.Error(w, "metrics disabled (start the server with a metrics sink)", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w) //nolint:errcheck // best-effort, like every exporter
}

// handleSolve is the admission path: parse → deadline context → bounded
// queue (reject-on-full) → hand off to a fleet worker → stream or await
// the result.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"), 0)
		return
	}
	reg := s.registry()
	req, err := readRequest(r)
	if err != nil {
		reg.Counter("serve.admission.bad_request").Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err), 0)
		return
	}
	if req.Problem == nil || req.Problem.NumQueries() == 0 {
		reg.Counter("serve.admission.bad_request").Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("request carries no problem"), 0)
		return
	}
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" || v == "ndjson" {
		req.Stream = true
	}

	deadline := s.cfg.defaultDeadline()
	if req.Options.DeadlineMillis > 0 {
		deadline = time.Duration(req.Options.DeadlineMillis) * time.Millisecond
	}
	if max := s.cfg.maxDeadline(); deadline > max {
		deadline = max
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	j, err := s.prepareJob(req, s.ids.next(), ctx)
	if err != nil {
		reg.Counter("serve.admission.bad_request").Add(1)
		writeError(w, http.StatusBadRequest, err, 0)
		return
	}
	device, strategy := j.device, j.strategy
	if sink := s.cfg.Sink; sink.Enabled() {
		// Root of the request's span tree. The trace id derives from the
		// request seed and id — deterministic, never wall-clock randomness —
		// so a replayed request reproduces identical span identity. The
		// queue span opens before admission and is closed by the worker at
		// pickup (or below, on rejection).
		var spanCtx context.Context
		spanCtx, j.span = sink.StartTrace(ctx, "request", obs.NewTraceID(req.Options.Seed, j.id))
		j.span.Attr("id", j.id).Attr("device", device).Attr("strategy", strategy)
		// The queue span is a leaf: solve work parents on the request
		// span, so queue and worker render as siblings.
		_, j.queueSpan = sink.StartSpan(spanCtx, "queue")
		j.ctx = spanCtx
	}

	// Adaptive overload shedding: when the fleet is demonstrably behind
	// (sliding-window p99 queue wait above the target), reject low- and
	// normal-priority work before it joins the backlog. High priority
	// always passes — the class exists so operators can keep a critical
	// stream flowing through an overload.
	if j.priority < priorityHigh && s.shed.overloaded() {
		reg.Counter("serve.admission.shed").Add(1)
		j.queueSpan.Attr("rejected", "shed").End()
		j.span.Attr("rejected", "shed").End()
		retry := s.cfg.retryAfter()
		sec := int((retry + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("rejected: shedding %s-priority load (queue wait p99 over target)", priorityName(j.priority)), sec)
		return
	}

	// Journal before admit: once the fsync lands the request survives a
	// crash, and an admission reject simply tombstones it again. A failed
	// journal write (disk trouble, chaos) degrades crash safety for this
	// one request but never rejects it.
	if err := s.journal.accept(j.id, j.priority, req); err != nil {
		reg.Counter("serve.journal.write_failures").Add(1)
		j.span.Attr("journal", "write_failed")
	}

	queued := s.queueDepth()
	ok, reason := s.admit(j)
	if !ok {
		s.journal.done(j.id)
		j.queueSpan.Attr("rejected", reason).End()
		j.span.Attr("rejected", reason).End()
		retry := s.cfg.retryAfter()
		switch reason {
		case "draining":
			reg.Counter("serve.admission.rejected_draining").Add(1)
			retry = 5 * retry // the process is going away; back off harder
		default:
			reg.Counter("serve.admission.rejected_full").Add(1)
		}
		w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("rejected: %s", reason), int((retry+time.Second-1)/time.Second))
		return
	}
	reg.Counter("serve.admission.accepted").Add(1)
	reg.Gauge("serve.queue.depth").Set(float64(s.queueDepth()))
	defer s.inflight.Done() // balanced by admit's Add under the lock

	if req.Stream {
		s.respondStream(w, j, device, strategy, queued)
	} else {
		s.respondUnary(w, j, device, strategy)
	}
}

// readRequest reads r's body whole into one buffer and decodes it. It
// reads the buffer in one pass with decodeRequest and falls back to
// encoding/json for whatever that refuses, so every request it returns
// and every error is the one json.NewDecoder(r.Body).Decode would give.
// The buffer grows only with the bytes that arrive, never ahead of them
// from the client's Content-Length.
func readRequest(r *http.Request) (*SolveRequest, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		// The streaming decoder saw the bytes that arrived, then the error.
		var req SolveRequest
		return &req, json.NewDecoder(io.MultiReader(&buf, errReader{err})).Decode(&req)
	}
	if req, ok := decodeRequest(buf.Bytes()); ok {
		return req, nil
	}
	var req SolveRequest
	return &req, json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&req)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// The keys decodeRequest reads: the json keys of SolveRequest and
// SolveOptions, as TestClientShapesTakeFastPath checks. A body with any
// other key takes the encoding/json path.
var (
	requestKeys = []string{"problem", "options", "stream"}
	optionKeys  = []string{"device", "strategy", "runs", "totalSweeps", "seed", "capacity", "deadlineMillis", "disableDss", "priority"}
)

// decodeRequest reads a SolveRequest from body in one pass, its keys in
// any order, handing the problem value to mqo's Lexer in place. It
// reports false wherever the Lexer refuses the body (see mqo.Lexer) or
// the problem is invalid, and the caller decodes body with encoding/json.
func decodeRequest(body []byte) (*SolveRequest, bool) {
	var req SolveRequest
	o := &req.Options
	l := mqo.NewLexer(body)
	l.Object(requestKeys, func(key string) {
		switch key {
		case "problem":
			req.Problem = l.Problem()
		case "options":
			l.Object(optionKeys, func(key string) {
				switch key {
				case "device":
					o.Device = l.String()
				case "strategy":
					o.Strategy = l.String()
				case "runs":
					o.Runs = l.Int()
				case "totalSweeps":
					o.TotalSweeps = l.Int()
				case "seed":
					o.Seed = l.Int64()
				case "capacity":
					o.Capacity = l.Int()
				case "deadlineMillis":
					o.DeadlineMillis = l.Int64()
				case "disableDss":
					o.DisableDSS = l.Bool()
				case "priority":
					o.Priority = l.String()
				}
			})
		case "stream":
			req.Stream = l.Bool()
		}
	})
	return &req, l.End()
}

// prepareJob validates req and assembles the job — options resolved
// against the server defaults — without admitting it. Both the HTTP
// admission path and journal replay build jobs here, so a replayed request
// resolves to exactly the options it would have run with originally.
func (s *Server) prepareJob(req *SolveRequest, id string, ctx context.Context) (*job, error) {
	if req.Problem == nil || req.Problem.NumQueries() == 0 {
		return nil, fmt.Errorf("request carries no problem")
	}
	strategy := req.Options.Strategy
	if strategy == "" {
		strategy = core.StrategyIncremental
	}
	switch strategy {
	case core.StrategyIncremental, core.StrategyParallel, core.StrategyDefault:
	default:
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}
	device := req.Options.Device
	if device == "" {
		device = s.cfg.device()
	}
	if _, err := s.cfg.newRawDevice(device, s.cfg.Capacity); err != nil {
		return nil, err
	}
	defPriority, _ := parsePriority(s.cfg.DefaultPriority, priorityNormal)
	priority, ok := parsePriority(req.Options.Priority, defPriority)
	if !ok {
		return nil, fmt.Errorf("unknown priority %q (want low, normal or high)", req.Options.Priority)
	}
	capacity := req.Options.Capacity
	if capacity == 0 {
		capacity = s.cfg.Capacity
	}
	runs := req.Options.Runs
	if runs == 0 {
		runs = s.cfg.defaultRuns()
	}
	sweeps := req.Options.TotalSweeps
	if sweeps == 0 {
		sweeps = s.cfg.DefaultSweeps
	}
	return &job{
		id:      id,
		problem: req.Problem,
		opt: core.Options{
			Capacity:    capacity,
			Runs:        runs,
			TotalSweeps: sweeps,
			Seed:        req.Options.Seed,
			Parallelism: s.cfg.Parallelism,
			DisableDSS:  req.Options.DisableDSS,
		},
		strategy: strategy,
		device:   device,
		priority: priority,
		ctx:      ctx,
		admitted: time.Now(),
		sess:     make(chan *core.Session, 1),
		result:   make(chan jobResult, 1),
	}, nil
}

// respondUnary waits for the job's result and writes one JSON body.
func (s *Server) respondUnary(w http.ResponseWriter, j *job, device, strategy string) {
	// The session handle must be drained even when unused, so the worker
	// never blocks; capacity 1 makes this receive non-blocking in effect.
	var queueWait time.Duration
	if sess, ok := <-j.sess; ok && sess != nil {
		queueWait = time.Since(j.admitted)
		_ = sess // incumbents are dropped by the session's buffer policy
	}
	res := <-j.result
	s.finishMetrics(j, res)
	if res.err != nil {
		writeError(w, statusFor(j, res.err), res.err, 0)
		return
	}
	writeJSON(w, http.StatusOK, s.response(j, res.out, device, strategy, queueWait))
}

// respondStream writes the NDJSON event stream: accepted, one line per
// incumbent while the solve runs, then outcome (or error).
func (s *Server) respondStream(w http.ResponseWriter, j *job, device, strategy string, queued int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	enc.Encode(StreamEvent{Type: "accepted", ID: j.id, QueueDepth: queued}) //nolint:errcheck
	flush()

	emit := func(inc core.Incumbent) {
		if inc.Final {
			return // the outcome event carries the final cost
		}
		enc.Encode(StreamEvent{ //nolint:errcheck
			Type: "incumbent", Merged: inc.Merged, Sub: inc.Sub,
			Cost: inc.Cost, ElapsedMillis: inc.Elapsed.Milliseconds(),
		})
		flush()
	}
	var queueWait time.Duration
	var res jobResult
	haveRes := false
	if sess, ok := <-j.sess; ok && sess != nil {
		queueWait = time.Since(j.admitted)
		// Consume incumbents and the result together: on the normal path
		// the incumbent channel closes strictly before the result arrives,
		// but an abandoned (watchdog-quarantined) solve delivers a result
		// while its incumbent stream never closes — ranging the stream
		// alone would wedge this handler exactly when the server just
		// recovered a wedged worker.
		incs := sess.Incumbents()
	recv:
		for {
			select {
			case inc, ok := <-incs:
				if !ok {
					break recv
				}
				emit(inc)
			case res = <-j.result:
				haveRes = true
				// The solve is finished (or abandoned): drain whatever
				// incumbents are already buffered, without blocking.
				for {
					select {
					case inc, ok := <-incs:
						if !ok {
							break recv
						}
						emit(inc)
					default:
						break recv
					}
				}
			}
		}
	}
	if !haveRes {
		res = <-j.result
	}
	s.finishMetrics(j, res)
	if res.err != nil {
		enc.Encode(StreamEvent{Type: "error", ID: j.id, Error: res.err.Error()}) //nolint:errcheck
		flush()
		return
	}
	enc.Encode(StreamEvent{Type: "outcome", Outcome: s.response(j, res.out, device, strategy, queueWait)}) //nolint:errcheck
	flush()
}

// response assembles the final SolveResponse from an outcome.
func (s *Server) response(j *job, out *core.Outcome, device, strategy string, queueWait time.Duration) *SolveResponse {
	return &SolveResponse{
		ID:               j.id,
		Strategy:         out.Strategy,
		Device:           device,
		Cost:             out.Cost,
		Selected:         append([]int(nil), out.Solution.Selected...),
		Partitions:       out.NumPartitions,
		Sweeps:           out.Sweeps,
		DiscardedSavings: out.DiscardedSavings,
		ReappliedSavings: out.ReappliedSavings,
		Degradations:     len(out.Degradations),
		Cache:            out.Cache,
		QueueMillis:      queueWait.Milliseconds(),
		SolveMillis:      out.Elapsed.Milliseconds(),
		TotalMillis:      time.Since(j.admitted).Milliseconds(),
	}
}

// finishMetrics records the request's terminal metrics, tombstones its
// journal entry and closes its root span. Sub-millisecond latencies keep
// their fraction so the quantile histogram's low buckets stay meaningful.
func (s *Server) finishMetrics(j *job, res jobResult) {
	s.journal.done(j.id)
	if res.err != nil {
		j.span.Attr("error", res.err.Error())
	}
	j.span.End()
	reg := s.registry()
	if reg == nil {
		return
	}
	latency := time.Since(j.admitted)
	reg.Histogram("serve.request.latency_ms").Observe(latency.Seconds() * 1e3)
	if res.err != nil {
		reg.Counter("serve.requests.failed").Add(1)
	} else {
		reg.Counter("serve.requests.completed").Add(1)
	}
}

// statusFor maps a solve error to an HTTP status: deadline/cancellation
// errors are the gateway-timeout family, everything else is a plain 500.
func statusFor(j *job, err error) int {
	if j.ctx.Err() != nil {
		return http.StatusGatewayTimeout
	}
	_ = err
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) //nolint:errcheck
}

func writeError(w http.ResponseWriter, status int, err error, retryAfterSeconds int) {
	writeJSON(w, status, errorBody{Error: err.Error(), RetryAfter: retryAfterSeconds})
}
