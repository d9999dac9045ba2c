package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/encoding"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
)

// tinySizes runs every workload's code paths in well under a second each:
// whole-anneal fits the 48-variable device, cold-partitioned and
// serve-mixed's large requests do not, and recurring-drift's second and
// third ops are structure hits.
var tinySizes = sizes{
	capacity: 48, runs: 2, sweepsPerVar: 20, ppq: 6,
	whole: 6, cold: 16, small: 4, large: 12, warmup: 12,
	wholePool: 3, coldPool: 3, servePool: 4,
	structures: 1, epochs: 3,
	minOps: map[string]int{"whole-anneal": checkedOps, "cold-partitioned": checkedOps, "recurring-drift": checkedOps, "serve-mixed": 4},
	rate:   50,
}

// readBenchmarkJSON reads BENCHMARK.json, failing on any key the
// benchmark contract does not define.
func readBenchmarkJSON(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bj
}

func names(bs []bound) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeMetricNames runs every workload at tiny sizes, untraced and
// traced, and checks that each run passes its output checks and emits
// exactly the metric names BENCHMARK.json lists.
func TestSmokeMetricNames(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var listed []string
	for _, w := range bj.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				rep, err := measure(context.Background(), w, tinySizes, 1, 0, trace, filepath.Join(t.TempDir(), "trace.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed > 0 || rep.attempted == 0 {
					t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.errs)
				}
				want := bj.EndToEnd
				if trace {
					want = bj.PerLayer
				}
				var got []string
				for _, m := range rep.metrics {
					if !valid.MatchString(m.name) {
						t.Errorf("metric name %q", m.name)
					}
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
						t.Errorf("%s = %v", m.name, m.value)
					}
					got = append(got, m.name)
				}
				sort.Strings(got)
				if g, w := strings.Join(got, " "), strings.Join(names(want), " "); g != w {
					t.Errorf("emitted metrics\n  %s\nBENCHMARK.json lists\n  %s", g, w)
				}
			})
		}
	}
}

// TestTracedPassReproducesUntraced checks that the traced pass, whose
// device and partitioning solver are span-recording wrappers, returns the
// untraced pass's answers bit for bit on each workload's first ops.
func TestTracedPassReproducesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(context.Background(), w, tinySizes, 2, 0, true, filepath.Join(t.TempDir(), "trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			u, tr := rep.passes[0].ops, rep.passes[1].ops
			if len(u) < checkedOps || len(tr) < checkedOps {
				t.Fatalf("passes ran %d and %d ops, want at least %d", len(u), len(tr), checkedOps)
			}
			for i := 0; i < checkedOps; i++ {
				if u[i].err != nil || tr[i].err != nil {
					t.Fatalf("op %d: untraced %v, traced %v", i, u[i].err, tr[i].err)
				}
				if err := sameAnswer(tr[i], u[i]); err != nil {
					t.Errorf("op %d: %v", i, err)
				}
			}
			if len(rep.passes[1].spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

// TestWrappersMatchUnwrapped compares a partitioned solve through the two
// span-recording wrappers with the same solve on the bare device and
// PartitionSolver nil.
func TestWrappersMatchUnwrapped(t *testing.T) {
	p, err := sweep(16, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	dev := &da.Solver{CapacityVars: 48}
	opt := core.Options{Device: dev, Runs: 2, TotalSweeps: 20 * p.NumPlans(), Seed: 3}
	want, err := core.SolveIncremental(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	opt.Device, opt.PartitionSolver = traced(dev, "anneal.sub", rec), traced(dev, "anneal.bisect", rec)
	got, err := core.SolveIncremental(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnswer(opResult{cost: got.Cost, sel: got.Solution.Selected}, opResult{cost: want.Cost, sel: want.Solution.Selected}); err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	for _, s := range rec.snapshot() {
		calls[s.Name]++
	}
	if calls["anneal.sub"] != want.NumPartitions || calls["anneal.bisect"] == 0 {
		t.Errorf("recorded %v for %d partial problems", calls, want.NumPartitions)
	}
}

// TestTracedForwardsLargeSolver checks that the wrapper keeps a device's
// own decomposition and adds none to a device without one.
func TestTracedForwardsLargeSolver(t *testing.T) {
	p, err := sweep(12, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := encoding.PrepareMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	req := solver.Request{Model: pp.Encoding().Model, Runs: 2, Sweeps: 200, Seed: 9}
	dev := &da.Solver{CapacityVars: 24}
	rec := newRecorder()
	ls, ok := traced(dev, "anneal", rec).(solver.LargeSolver)
	if !ok {
		t.Fatal("wrapped da device lost solver.LargeSolver")
	}
	want, err := dev.SolveLarge(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ls.SolveLarge(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := want.Best()
	gb, _ := got.Best()
	if math.Float64bits(wb.Energy) != math.Float64bits(gb.Energy) || got.Sweeps != want.Sweeps {
		t.Errorf("SolveLarge through the wrapper: energy %v sweeps %d, bare %v sweeps %d", gb.Energy, got.Sweeps, wb.Energy, want.Sweeps)
	}
	if n := len(rec.snapshot()); n != 1 {
		t.Errorf("recorded %d spans for one SolveLarge call", n)
	}
	if _, ok := traced(&sa.Solver{}, "anneal", rec).(solver.LargeSolver); ok {
		t.Error("wrapped sa device claims solver.LargeSolver")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}
}

func TestBenchmarkJSONContract(t *testing.T) {
	bj := readBenchmarkJSON(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(b bound, e2e bool) {
		if !valid.MatchString(b.Name) || seen[b.Name] {
			t.Errorf("metric name %q invalid or repeated", b.Name)
		}
		seen[b.Name] = true
		if !unit.MatchString(b.Unit) || (b.Better != "lower" && b.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", b.Name, b.Unit, b.Better)
		}
		if e2e && (b.Bound <= 0 || b.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", b.Name, b.Bound)
		}
	}
	for _, b := range bj.EndToEnd {
		check(b, true)
	}
	for _, b := range bj.PerLayer {
		check(b, false)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, w := range bj.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
}

// TestCompare checks the comparator's verdicts: within bounds passes, a
// slower p50 beyond its bound or a cost change at equal seed fails.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, cost float64) string {
		s := summary{Benchmark: "incranneal", Workload: "whole-anneal", Seed: 1, Metrics: map[string]value{
			"latency_ms.p50": {p50, "ms"}, "cost_ratio": {cost, "ratio"},
		}}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append([]byte("# header\n"), append(b, '\n')...), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.out", 100, 0.95)
	for _, tc := range []struct {
		name      string
		p50, cost float64
		ok        bool
	}{
		{"same", 100, 0.95, true},
		{"faster", 80, 0.95, true},
		{"slower", 150, 0.95, false},
		{"cost-changed", 100, 0.96, false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(base, write(tc.name+".out", tc.p50, tc.cost), "../BENCHMARK.json", &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}
