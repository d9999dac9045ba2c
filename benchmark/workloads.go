package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/serve"
	"incranneal/internal/solvecache"
	"incranneal/internal/solver"
	gen "incranneal/internal/workload"
)

// sizes fixes how large a run's inputs are and how many ops it makes at
// least. The command measures fullSizes; the tests run the same code on
// tiny inputs.
type sizes struct {
	capacity     int // DA variable capacity
	runs         int // annealing runs per (partial) problem
	sweepsPerVar int // total sweep budget per plan variable
	ppq          int // plans per query

	// Queries per instance: whole-anneal, cold-partitioned and
	// recurring-drift, serve-mixed's two request classes, and the warm-up op.
	whole, cold, small, large, warmup int
	// Distinct instances each workload cycles through.
	wholePool, coldPool, servePool int
	// recurring-drift solves structures × epochs distinct problems.
	structures, epochs int
	// minOps is the fewest ops a pass runs, however long it takes.
	// cost_ratio and the closed loop's throughput cover exactly these ops,
	// so every run of a seed measures the same ops.
	minOps map[string]int
	// rate is serve-mixed's offered load in requests per second.
	rate float64
}

var fullSizes = sizes{
	capacity: 512, runs: 8, sweepsPerVar: 100, ppq: 6,
	whole: 64, cold: 256, small: 32, large: 96, warmup: 96,
	wholePool: 100, coldPool: 10, servePool: 96,
	structures: 3, epochs: 10,
	minOps: map[string]int{"whole-anneal": 100, "cold-partitioned": 10, "recurring-drift": 30, "serve-mixed": 96},
	rate:   5,
}

const (
	setups         = 3    // set-ups per run; setup_s is their median
	cacheEntries   = 8    // recurring-drift's solvecache.New bound
	driftRel       = 0.05 // recurring-drift's per-epoch weight jitter
	warmStartDrift = 0.2  // recurring-drift's core.Options.WarmStartDrift
	checkedOps     = 3    // ops a traced pass must reproduce bit for bit
	referenceOps   = 8    // serve-mixed responses re-solved standalone
	// calibrationRounds are timed before and after every pass.
	calibrationRounds = 50
	// gapForCalibration is how long before a serve-mixed arrival the
	// generator checks for an idle server, leaving time for one
	// calibration round before the request is due.
	gapForCalibration = 10 * time.Millisecond
)

// workload is one set of inputs and the loop that drives them. Op i of a
// pass solves pool[i%len(pool)] with a seed of its own, so no two ops of a
// pass share both problem and seed.
type workload struct {
	name string
	pool func(sz sizes, seed int64) ([]*mqo.Problem, error)
	// cache makes the ops of a pass share one solvecache.Cache.
	cache bool
	// serve sends the ops through serve.Server as an open loop;
	// otherwise one caller solves them back to back.
	serve bool
}

var workloads = []workload{
	{
		// 384 variables fit the device: no partitioning, nearly all time
		// in the da anneal.
		name: "whole-anneal",
		pool: func(sz sizes, seed int64) ([]*mqo.Problem, error) {
			return sweeps(sz.wholePool, sz.whole, sz.ppq, seed, "whole")
		},
	},
	{
		// 1536 variables, no cache: recursive bisection dominates.
		name: "cold-partitioned",
		pool: func(sz sizes, seed int64) ([]*mqo.Problem, error) {
			return sweeps(sz.coldPool, sz.cold, sz.ppq, seed, "cold")
		},
	},
	{
		// Recurring structures with drifting weights: structure hits
		// refit the cached partitioning instead of bisecting.
		name:  "recurring-drift",
		pool:  driftPool,
		cache: true,
	},
	{
		// Queueing: a 3:1 mix of unpartitioned and partitioned requests.
		name:  "serve-mixed",
		pool:  servePool,
		serve: true,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// deriveSeed maps (seed, tag, i) to an input seed, so every generated
// instance and solve depends on --seed alone.
func deriveSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	return int64(h.Sum64() >> 1)
}

// sweep generates one instance of the paper's parameter sweep with the
// community structure every workload uses.
func sweep(queries, ppq int, seed int64) (*mqo.Problem, error) {
	in, err := gen.GenerateSweep(gen.SweepConfig{
		Queries: queries, PPQ: ppq, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.8, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return in.Problem, nil
}

func sweeps(n, queries, ppq int, seed int64, tag string) ([]*mqo.Problem, error) {
	ps := make([]*mqo.Problem, n)
	for i := range ps {
		p, err := sweep(queries, ppq, deriveSeed(seed, tag, i))
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// driftPool lays the recurring-drift problems out epoch by epoch, so op i
// solves structure i%structures in epoch i/structures. Epoch 0 holds the
// original weights; later epochs jitter them.
func driftPool(sz sizes, seed int64) ([]*mqo.Problem, error) {
	base, err := sweeps(sz.structures, sz.cold, sz.ppq, seed, "drift")
	if err != nil {
		return nil, err
	}
	pool := append([]*mqo.Problem(nil), base...)
	for e := 1; e < sz.epochs; e++ {
		for s, p := range base {
			dp, err := driftWeights(p, driftRel, deriveSeed(seed, "epoch", e*len(base)+s))
			if err != nil {
				return nil, err
			}
			pool = append(pool, dp)
		}
	}
	return pool, nil
}

// driftWeights returns a copy of p with every plan cost and saving value
// multiplied by a factor drawn uniformly from [1-rel, 1+rel]. Zero savings
// stay zero, so the copy has p's structure fingerprint.
func driftWeights(p *mqo.Problem, rel float64, seed int64) (*mqo.Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	jitter := func(v float64) float64 { return v * (1 + rel*(2*rng.Float64()-1)) }
	costs := make([][]float64, p.NumQueries())
	for q := range costs {
		for _, pl := range p.Plans(q) {
			costs[q] = append(costs[q], jitter(p.Cost(pl)))
		}
	}
	savings := append([]mqo.Saving(nil), p.Savings()...)
	for i := range savings {
		if savings[i].Value != 0 {
			savings[i].Value = jitter(savings[i].Value)
		}
	}
	return mqo.NewProblem(costs, savings)
}

// servePool alternates three small requests with one large one, so op i
// is large exactly when i%4 == 3.
func servePool(sz sizes, seed int64) ([]*mqo.Problem, error) {
	pool := make([]*mqo.Problem, sz.servePool)
	for i := range pool {
		q := sz.small
		if i%4 == 3 {
			q = sz.large
		}
		p, err := sweep(q, sz.ppq, deriveSeed(seed, "serve", i))
		if err != nil {
			return nil, err
		}
		pool[i] = p
	}
	return pool, nil
}

// instance is one generated problem with what the checks and metrics need.
type instance struct {
	p       *mqo.Problem
	greedy  float64 // cost of mqo.GreedySolution: cost_ratio's denominator
	savings float64 // Σ saving values: partition.discarded_ratio's denominator
	json    []byte  // serve-mixed: the problem in the request format
}

func newInstance(p *mqo.Problem, marshal bool) (instance, error) {
	in := instance{p: p, greedy: mqo.GreedySolution(p).Cost(p)}
	for _, s := range p.Savings() {
		in.savings += s.Value
	}
	if marshal {
		b, err := json.Marshal(p)
		if err != nil {
			return in, err
		}
		in.json = b
	}
	return in, nil
}

// runner measures one workload at one seed.
type runner struct {
	w      workload
	sz     sizes
	seed   int64
	minOps int
	pool   []instance
	warm   instance
	cal    *calibrator
}

// pass holds the program objects one measured pass drives. A traced pass
// also records spans and keeps an obs.Registry for the program's own
// counters.
type pass struct {
	ctx   context.Context
	rec   *recorder
	reg   *obs.Registry
	cache *solvecache.Cache
	srv   *serve.Server
}

// setup generates the inputs, builds the program objects of an untraced
// pass and runs one untimed warm-up op.
func (r *runner) setup(ctx context.Context) (*pass, error) {
	ps, err := r.w.pool(r.sz, r.seed)
	if err != nil {
		return nil, err
	}
	r.pool = make([]instance, len(ps))
	for i, p := range ps {
		if r.pool[i], err = newInstance(p, r.w.serve); err != nil {
			return nil, err
		}
	}
	wp, err := sweep(r.sz.warmup, r.sz.ppq, deriveSeed(r.seed, "warmup", 0))
	if err != nil {
		return nil, err
	}
	if r.warm, err = newInstance(wp, r.w.serve); err != nil {
		return nil, err
	}
	return r.prepare(ctx, false)
}

// prepare builds the program objects of a pass and runs one warm-up op
// on them, outside the pass's cache and spans.
func (r *runner) prepare(ctx context.Context, trace bool) (*pass, error) {
	ps := &pass{ctx: ctx}
	if trace {
		ps.rec, ps.reg = newRecorder(), obs.NewRegistry()
	}
	if r.w.cache {
		ps.cache = solvecache.New(cacheEntries)
	}
	warmSeed := deriveSeed(r.seed, "warmup-solve", 0)
	var warm opResult
	if r.w.serve {
		cfg := serve.Config{Fleet: 2, QueueDepth: 256, Capacity: r.sz.capacity}
		if trace {
			cfg.Sink = obs.NewSink(nil, ps.reg)
			cfg.NewDevice = func(name string, capacity int) (solver.Solver, error) {
				if name != "da" {
					return nil, fmt.Errorf("benchmark: no traced device %q", name)
				}
				return traced(&da.Solver{CapacityVars: capacity}, "anneal", ps.rec), nil
			}
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		ps.srv = srv
		warm = r.request(ctx, &pass{srv: srv}, -1, &r.warm, warmSeed, time.Now())
	} else {
		if trace {
			ps.ctx = obs.NewContext(ctx, obs.NewSink(nil, ps.reg))
		}
		warm = r.solve(&pass{ctx: ctx}, -1, &r.warm, warmSeed)
	}
	if warm.err != nil {
		ps.close()
		return nil, fmt.Errorf("warm-up op: %w", warm.err)
	}
	if ps.rec != nil {
		ps.rec.reset()
	}
	return ps, nil
}

func (ps *pass) close() {
	if ps.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ps.srv.Shutdown(ctx) //nolint:errcheck // every request has been answered by now
}

// opResult is one op's outcome. err is nil only when the op succeeded and
// passed every output check.
type opResult struct {
	in      *instance
	due     time.Time
	latency time.Duration // due time to completion
	// scale converts the op's times to the reference host's, from the
	// calibration rounds on either side of the op.
	scale   float64
	cost    float64
	sel     []int
	err     error
	out     *core.Outcome        // closed loop
	resp    *serve.SolveResponse // serve-mixed
	handler time.Duration        // serve-mixed: time inside ServeHTTP
	status  int                  // serve-mixed: HTTP status
	lag     time.Duration        // serve-mixed: how late the generator sent it
}

// passResult is what one pass measured.
type passResult struct {
	ops []opResult
	// wall is the pass's length.
	wall time.Duration
	// cal holds the calibration rounds timed around the pass, between
	// closed-loop ops and in serve-mixed's idle gaps.
	cal      timeline
	alloc    uint64 // bytes allocated during the pass
	gcCycles uint32
	gcPause  time.Duration
	spans    []span
	// repaired and samples are the program's decode.repaired and
	// decode.samples counters over the pass (traced passes only).
	repaired, samples float64
	evictions         uint64
}

// run measures one pass of at least seconds and at least minOps ops.
func (r *runner) run(ps *pass, seconds float64) passResult {
	var res passResult
	counter := func(name string) float64 {
		if ps.reg == nil {
			return 0
		}
		return ps.reg.Counter(name).Value()
	}
	repaired0, samples0 := counter("decode.repaired"), counter("decode.samples")
	res.cal.add(quantile(r.cal.rounds(calibrationRounds), 0.5))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if r.w.serve {
		res.ops = r.openLoop(ps, start, seconds, &res.cal)
	} else {
		end := start.Add(time.Duration(seconds * float64(time.Second)))
		for i := 0; i < r.minOps || time.Now().Before(end); i++ {
			if i > 0 {
				res.cal.add(r.cal.round())
			}
			res.ops = append(res.ops, r.solve(ps, i, &r.pool[i%len(r.pool)], deriveSeed(r.seed, "solve", i)))
		}
	}
	res.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	res.repaired = counter("decode.repaired") - repaired0
	res.samples = counter("decode.samples") - samples0
	if ps.rec != nil {
		res.spans = ps.rec.snapshot()
	}
	if ps.cache != nil {
		res.evictions = ps.cache.Stats().Evictions
	}
	res.cal.add(quantile(r.cal.rounds(calibrationRounds), 0.5))
	for i := range res.ops {
		o := &res.ops[i]
		o.scale = res.cal.scaleOver(o.due, o.due.Add(o.latency))
	}
	return res
}

// options are the core.Options of one closed-loop solve. A traced pass
// wraps the device twice, so device spans split into sub-problem solves
// and partitioning bisections.
func (r *runner) options(ps *pass, p *mqo.Problem, seed int64) core.Options {
	dev := &da.Solver{CapacityVars: r.sz.capacity}
	opt := core.Options{Device: dev, Runs: r.sz.runs, TotalSweeps: r.sz.sweepsPerVar * p.NumPlans(), Seed: seed}
	if ps.cache != nil {
		opt.Cache, opt.WarmStartDrift = ps.cache, warmStartDrift
	}
	if ps.rec != nil {
		opt.Device = traced(dev, "anneal.sub", ps.rec)
		opt.PartitionSolver = traced(dev, "anneal.bisect", ps.rec)
	}
	return opt
}

// solve runs closed-loop op i: one core.SolveIncremental call.
func (r *runner) solve(ps *pass, op int, in *instance, seed int64) opResult {
	opt := r.options(ps, in.p, seed)
	due := time.Now()
	ctx, spans := ps.rec.startOp(ps.ctx, op, "solve", due)
	out, err := core.SolveIncremental(ctx, in.p, opt)
	end := time.Now()
	res := opResult{in: in, due: due, latency: end.Sub(due), out: out}
	if err == nil {
		res.cost, res.sel = out.Cost, out.Solution.Selected
		err = check(in.p, out.Solution.Selected, out.Cost)
		if err == nil && len(out.Degradations) > 0 {
			err = fmt.Errorf("%d partial problems degraded to greedy repair", len(out.Degradations))
		}
	}
	spans.finish(end, err)
	res.err = err
	return res
}

// check verifies a reported answer: a complete, valid selection whose cost
// recomputes exactly to the reported cost.
func check(p *mqo.Problem, sel []int, cost float64) error {
	sol := &mqo.Solution{Selected: sel}
	if err := sol.Validate(p); err != nil {
		return err
	}
	if !sol.Complete() {
		return fmt.Errorf("incomplete solution")
	}
	if c := sol.Cost(p); c != cost {
		return fmt.Errorf("reported cost %v, selection costs %v", cost, c)
	}
	return nil
}

// arrivals returns the due times, as offsets from the start, of one fixed
// Poisson trace at rate per second: rate×seconds arrivals (at least n),
// placed as the sorted draws of a uniform distribution, which is a Poisson
// process conditioned on its count. The trace does not depend on --seed,
// so seeds vary the requests but neither the offered load nor the burst
// pattern.
func arrivals(rate, seconds float64, n int) []time.Duration {
	count := max(int(math.Round(rate*seconds)), n)
	span := float64(count) / rate * float64(time.Second)
	rng := rand.New(rand.NewSource(1))
	due := make([]time.Duration, count)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * span)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoop sends each request at its due time whether or not earlier ones
// have been answered, and returns once every request has been. When no
// request is in flight gapForCalibration before a due time, it times one
// calibration round into cal first.
func (r *runner) openLoop(ps *pass, start time.Time, seconds float64, cal *timeline) []opResult {
	due := arrivals(r.sz.rate, seconds, r.minOps)
	ops := make([]opResult, len(due))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at.Add(-gapForCalibration)))
		if inflight.Load() == 0 && time.Until(at) > gapForCalibration/2 {
			cal.add(r.cal.round())
		}
		time.Sleep(time.Until(at))
		lag := time.Since(at)
		inflight.Add(1)
		wg.Add(1)
		go func(i int, at time.Time, lag time.Duration) {
			defer wg.Done()
			defer inflight.Add(-1)
			ops[i] = r.request(ps.ctx, ps, i, &r.pool[i%len(r.pool)], deriveSeed(r.seed, "solve", i), at)
			ops[i].lag = lag
		}(i, at, lag)
	}
	wg.Wait()
	return ops
}

// request sends one solve request through the server's handler in
// process and checks the response against the request's problem.
func (r *runner) request(ctx context.Context, ps *pass, op int, in *instance, seed int64, due time.Time) opResult {
	opts := fmt.Sprintf(`,"options":{"runs":%d,"totalSweeps":%d,"seed":%d}}`, r.sz.runs, r.sz.sweepsPerVar*in.p.NumPlans(), seed)
	body := io.MultiReader(strings.NewReader(`{"problem":`), bytes.NewReader(in.json), strings.NewReader(opts))
	ctx, spans := ps.rec.startOp(ctx, op, "handler", due)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", body).WithContext(ctx)
	w := httptest.NewRecorder()
	start := time.Now()
	ps.srv.Handler().ServeHTTP(w, req)
	end := time.Now()
	res := opResult{in: in, due: due, latency: end.Sub(due), handler: end.Sub(start), status: w.Code}
	var err error
	if w.Code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
	} else {
		var resp serve.SolveResponse
		if err = json.Unmarshal(w.Body.Bytes(), &resp); err == nil {
			res.resp, res.cost, res.sel = &resp, resp.Cost, resp.Selected
			err = check(in.p, resp.Selected, resp.Cost)
		}
	}
	spans.finish(end, err)
	res.err = err
	return res
}

// checkReference re-solves the first referenceOps serve-mixed requests
// standalone with core.SolveIncremental and fails every response that
// differs in any bit.
func (r *runner) checkReference(ctx context.Context, ops []opResult) {
	for i := 0; i < len(ops) && i < referenceOps; i++ {
		if ops[i].err != nil {
			continue
		}
		want := r.solve(&pass{ctx: ctx}, i, ops[i].in, deriveSeed(r.seed, "solve", i))
		if want.err != nil {
			ops[i].err = fmt.Errorf("standalone reference: %w", want.err)
		} else if err := sameAnswer(ops[i], want); err != nil {
			ops[i].err = fmt.Errorf("served answer differs from standalone: %w", err)
		}
	}
}

// sameAnswer reports how a and b differ in cost bits or selections.
func sameAnswer(a, b opResult) error {
	if math.Float64bits(a.cost) != math.Float64bits(b.cost) {
		return fmt.Errorf("cost %v vs %v", a.cost, b.cost)
	}
	if len(a.sel) != len(b.sel) {
		return fmt.Errorf("%d vs %d selections", len(a.sel), len(b.sel))
	}
	for q := range a.sel {
		if a.sel[q] != b.sel[q] {
			return fmt.Errorf("query %d: plan %d vs %d", q, a.sel[q], b.sel[q])
		}
	}
	return nil
}
