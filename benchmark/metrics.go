package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run of one workload.
type report struct {
	attempted, failed int
	metrics           []metric
	// calibrationMs is the untraced pass's median calibration round.
	calibrationMs float64
	// passes holds the untraced pass and, on a traced run, the traced one.
	passes []passResult
	errs   []error
}

// measure sets the workload up setups times, then measures one untraced
// pass. With trace it halves the pass length and adds a traced pass over
// the same ops, reports the per-layer metrics instead of the end-to-end
// ones and writes the traced pass's spans to traceOut.
func measure(ctx context.Context, w workload, sz sizes, seed int64, seconds float64, trace bool, traceOut string) (*report, error) {
	r := &runner{w: w, sz: sz, seed: seed, minOps: sz.minOps[w.name], cal: newCalibrator()}
	setupTimes := make([]time.Duration, setups)
	var ps *pass
	for k := range setupTimes {
		t0 := time.Now()
		p, err := r.setup(ctx)
		setupTimes[k] = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if k < setups-1 {
			p.close()
		} else {
			ps = p
		}
	}
	if trace {
		seconds /= 2
	}
	u := r.run(ps, seconds)
	ps.close()
	if w.serve {
		r.checkReference(ctx, u.ops)
	}
	rep := &report{passes: []passResult{u}, calibrationMs: quantile(u.cal.ms, 0.5)}
	if trace {
		tp, err := r.prepare(ctx, true)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		t := r.run(tp, seconds)
		tp.close()
		for i := 0; i < checkedOps && i < len(u.ops) && i < len(t.ops); i++ {
			if u.ops[i].err == nil && t.ops[i].err == nil {
				if err := sameAnswer(t.ops[i], u.ops[i]); err != nil {
					t.ops[i].err = fmt.Errorf("traced answer differs from untraced: %w", err)
				}
			}
		}
		rep.passes = append(rep.passes, t)
		rep.metrics = perLayer(u, t)
		if err := tp.rec.writeJSONL(traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		rep.metrics = endToEnd(setupTimes, u, r.minOps, w.serve)
	}
	for _, p := range rep.passes {
		for i, o := range p.ops {
			rep.attempted++
			if o.err != nil {
				rep.failed++
				rep.errs = append(rep.errs, fmt.Errorf("op %d: %w", i, o.err))
			}
		}
	}
	return rep, nil
}

// endToEnd derives the metrics a user of the system sees. Times are
// scaled to the reference host (see refCalibrationMs).
func endToEnd(setupTimes []time.Duration, p passResult, minOps int, serve bool) []metric {
	f := p.cal.scale()
	lat := millis(p.ops, func(o opResult) time.Duration { return o.latency })
	var ok, savings int
	for _, o := range p.ops {
		savings += len(o.in.p.Savings())
		if o.err == nil {
			ok++
		}
	}
	// cost_ratio and the closed loop's throughput cover the first minOps
	// ops, which every run completes however fast the host is, so they
	// average the same ops on every run of a seed. serve-mixed's throughput
	// is set by its offered load, so it is not scaled.
	n := min(minOps, len(p.ops))
	var ratio, busy float64
	for _, o := range p.ops[:n] {
		ratio += o.cost / o.in.greedy
		busy += o.latency.Seconds() * o.scale
	}
	throughput := div(float64(n), busy)
	if serve {
		throughput = float64(ok) / p.wall.Seconds()
	}
	setup := make([]float64, len(setupTimes))
	for i, d := range setupTimes {
		setup[i] = d.Seconds() * f
	}
	return []metric{
		{"setup_s", quantile(setup, 0.5), "s"},
		{"latency_ms.p50", quantile(lat, 0.5), "ms"},
		{"latency_ms.p90", quantile(lat, 0.9), "ms"},
		{"ops_per_s", throughput, "1/s"},
		{"cost_ratio", div(ratio, float64(n)), "ratio"},
		{"alloc_b_per_saving", div(float64(p.alloc), float64(savings)), "B"},
	}
}

// perLayer derives the per-layer metrics of a traced pass t; u is the
// untraced pass over the same ops, the base of trace.overhead_pct.
//
// Only layers every workload reaches report times (scaled to the reference
// host by the traced pass's median round); the rest report shares of the
// time spent in the public calls, or counts, so that a layer a workload
// never reaches reads 0 as a share rather than as a time.
func perLayer(u, t passResult) []metric {
	ops := float64(len(t.ops))
	f := t.cal.scale()
	scaled := func(d time.Duration) float64 { return ms(d) * f }
	var m []metric
	add := func(name string, v float64, unit string) { m = append(m, metric{name, v, unit}) }
	var callTime time.Duration
	for _, o := range t.ops {
		if o.err == nil {
			callTime += o.latency
		}
	}
	share := func(d time.Duration) float64 { return div(float64(d), float64(callTime)) }

	// da: every device span ("anneal", serve-mixed's only wrapper), then
	// the closed loop's two wrappers apart.
	var busy time.Duration
	var calls, errs int
	var durs []float64
	var vars, varSweeps float64
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, "anneal") {
			continue
		}
		calls++
		if s.Err != "" {
			errs++
		}
		busy += s.dur()
		durs = append(durs, scaled(s.dur()))
		vars += float64(s.Vars)
		varSweeps += float64(s.Vars) * float64(s.Sweeps)
	}
	add("anneal.calls", div(float64(calls), ops), "count")
	add("anneal.ms", div(scaled(busy), ops), "ms")
	add("anneal.share", share(busy), "ratio")
	add("anneal.call_ms.p50", quantile(durs, 0.5), "ms")
	add("anneal.vars_per_call", div(vars, float64(calls)), "count")
	add("anneal.ns_per_var_sweep", div(float64(busy.Nanoseconds())*f, varSweeps), "ns")
	add("anneal.errors", float64(errs), "count")
	for _, g := range []string{"anneal.sub", "anneal.bisect"} {
		var busy time.Duration
		var calls, vars float64
		for _, s := range t.spans {
			if s.Name == g {
				busy += s.dur()
				calls++
				vars += float64(s.Vars)
			}
		}
		add(g+".calls", div(calls, ops), "count")
		add(g+".share", share(busy), "ratio")
		add(g+".vars_per_call", div(vars, calls), "count")
	}

	// The closed loop's Outcome carries phase timings and counts;
	// serve-mixed answers carry only the counts.
	var part, encode, decode, dss, phases, elapsed, queue, overhead time.Duration
	var subs, discarded, savings, reapplied, dagOps, waves, width float64
	var hits, skelHits, skelAll, warm, queued float64
	for _, o := range t.ops {
		if o.err != nil {
			continue
		}
		savings += o.in.savings
		switch {
		case o.out != nil:
			tm := o.out.Timings
			part, encode, decode, dss = part+tm.Partition, encode+tm.Encode, decode+tm.Decode, dss+tm.DSS
			phases += tm.Total()
			elapsed += o.out.Elapsed
			subs += float64(o.out.NumPartitions)
			discarded += o.out.DiscardedSavings
			reapplied += o.out.ReappliedSavings
			if d := o.out.DAG; d != nil {
				dagOps++
				waves += float64(d.Waves)
				width += float64(d.Width)
			}
			if c := o.out.Cache; c != nil {
				hits += b2f(c.StructureHit)
				warm += b2f(c.WarmStart)
				skelHits += float64(c.SkeletonHits)
				skelAll += float64(c.SkeletonHits + c.SkeletonMisses)
			}
		case o.resp != nil:
			subs += float64(o.resp.Partitions)
			discarded += o.resp.DiscardedSavings
			reapplied += o.resp.ReappliedSavings
			queue += time.Duration(o.resp.QueueMillis) * time.Millisecond
			queued += b2f(o.resp.QueueMillis > 0)
			overhead += o.handler - time.Duration(o.resp.TotalMillis)*time.Millisecond
		}
	}
	add("partition.share", share(part), "ratio")
	add("partition.subs", div(subs, ops), "count")
	add("partition.discarded_ratio", div(discarded, savings), "ratio")
	add("encode.share", share(encode), "ratio")
	add("decode.share", share(decode), "ratio")
	add("decode.repaired_ratio", div(t.repaired, t.samples), "ratio")
	add("dss.share", share(dss), "ratio")
	add("dss.reapplied_ratio", div(reapplied, discarded), "ratio")

	// Self time of the public call: its span minus the union of its device
	// spans. On serve-mixed that includes queueing and HTTP handling.
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self time.Duration
	for _, s := range t.spans {
		if s.Name == "solve" || s.Name == "handler" {
			self += selfTime(s, children[s.ID])
		}
	}
	add("call.self_ms", div(scaled(self), ops), "ms")
	add("pipeline.phase_sum_ratio", div(float64(phases), float64(elapsed)), "ratio")
	add("dag.waves", div(waves, dagOps), "count")
	add("dag.width", div(width, dagOps), "count")

	add("cache.hit_ratio", div(hits, ops), "ratio")
	add("cache.skeleton_hit_ratio", div(skelHits, skelAll), "ratio")
	add("cache.warm_ratio", div(warm, ops), "ratio")
	add("cache.evictions", float64(t.evictions), "count")

	var rejected, expired, late float64
	for _, o := range t.ops {
		rejected += b2f(o.status == http.StatusServiceUnavailable)
		expired += b2f(o.status == http.StatusGatewayTimeout)
		late += b2f(o.lag > time.Millisecond)
	}
	add("serve.queue_share", share(queue), "ratio")
	add("serve.queued_ratio", div(queued, ops), "ratio")
	add("serve.overhead_share", share(overhead), "ratio")
	add("serve.rejected", rejected, "count")
	add("serve.expired", expired, "count")
	add("serve.late_sends", late, "count")

	add("go.gc_pause_ms", div(scaled(t.gcPause), ops), "ms")
	add("go.gc_cycles", div(float64(t.gcCycles), ops), "count")
	add("host.calibration_ms", quantile(t.cal.ms, 0.5), "ms")

	lat := func(p passResult) float64 {
		return quantile(millis(p.ops, func(o opResult) time.Duration { return o.latency }), 0.5)
	}
	add("trace.overhead_pct", 100*(div(lat(t), lat(u))-1), "%")
	return m
}

// millis returns f of every op that succeeded, in milliseconds on the
// reference host.
func millis(ops []opResult, f func(opResult) time.Duration) []float64 {
	var v []float64
	for _, o := range ops {
		if o.err == nil {
			v = append(v, ms(f(o))*o.scale)
		}
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the nearest-rank q-quantile of v, 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// div is a/b, or 0 when b is 0, so that a layer a workload never reaches
// reads 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
