package partition

import (
	"context"
	"math"
	"reflect"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

// fixedSolver returns the same samples, in the given (ascending-energy)
// order, for every request.
type fixedSolver struct{ samples []solver.Sample }

func (f *fixedSolver) Name() string  { return "fixed" }
func (f *fixedSolver) Capacity() int { return 0 }
func (f *fixedSolver) Solve(_ context.Context, req solver.Request) (*solver.Result, error) {
	return &solver.Result{Samples: f.samples, Sweeps: req.Sweeps}, nil
}

func TestBisectKeepsLowestCutSample(t *testing.T) {
	// Paper example: ω(q1,q2) = ω(q3,q4) = 8, ω(q1,q4) = ω(q2,q3) = 5.
	g := BuildGraph(mqo.PaperExample())
	all := []int{0, 1, 2, 3}
	run := func(parses int, samples ...[]int8) split {
		t.Helper()
		dev := &fixedSolver{}
		for i, a := range samples {
			dev.samples = append(dev.samples, solver.Sample{Assignment: a, Energy: float64(i)})
		}
		sp, err := bisect(context.Background(), g, all, Options{Solver: dev, PostProcessParses: parses}, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	// The lowest-energy sample (q1,q4)|(q2,q3) post-processes to a 1|3
	// split with cut 13; the later (q1,q2)|(q3,q4) keeps its cut of 10.
	sp := run(0, []int8{1, 0, 0, 1}, []int8{1, 1, 0, 0})
	if !reflect.DeepEqual(sp.part1, []int{0, 1}) || !reflect.DeepEqual(sp.part2, []int{2, 3}) || sp.cut != 10 {
		t.Errorf("kept %v | %v (cut %v), want the later sample's [0 1] | [2 3] (cut 10)", sp.part1, sp.part2, sp.cut)
	}
	// Mirror images cut the same weight: the earlier, lower-energy sample
	// wins and keeps its orientation.
	sp = run(0, []int8{0, 0, 1, 1}, []int8{1, 1, 0, 0})
	if !reflect.DeepEqual(sp.part1, []int{2, 3}) {
		t.Errorf("tie kept part1 %v, want the earlier sample's [2 3]", sp.part1)
	}
	// Without Algorithm 1 the lowest-energy sample is kept as decoded.
	sp = run(-1, []int8{1, 0, 0, 1}, []int8{1, 1, 0, 0})
	if !reflect.DeepEqual(sp.part1, []int{0, 3}) || sp.cut != 16 {
		t.Errorf("ablation kept %v | %v (cut %v), want [0 3] | [1 2] (cut 16)", sp.part1, sp.part2, sp.cut)
	}
	if sp.imbalance != 0 || sp.sweeps != 10 {
		t.Errorf("imbalance %v sweeps %d, want 0 and 10", sp.imbalance, sp.sweeps)
	}
}

// TestBisectEventsCarryQuality checks the bisect phase's payload: the
// steps the device performed (Runs × the per-bisection budget), the cut
// weight of the chosen split and its plan-weight imbalance.
func TestBisectEventsCarryQuality(t *testing.T) {
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 40, PPQ: 3, Communities: 4, DensityLow: 0.05, DensityHigh: 0.8, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := in.Problem
	opt := Options{Capacity: 30, Solver: &da.Solver{}, Runs: 3, Sweeps: 50 * p.NumPlans(), Seed: 4}
	sink := obs.NewCollector(nil)
	res, err := Partition(obs.NewContext(context.Background(), sink), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	for _, e := range sink.Events() {
		if e.Name == "bisect" {
			events = append(events, e)
		}
	}
	if len(events) != res.Bisections || len(events) < 3 {
		t.Fatalf("%d bisect events for %d bisections, want at least 3", len(events), res.Bisections)
	}
	var cuts float64
	for _, e := range events {
		if want := opt.Runs * bisectionSweeps(opt.Sweeps, e.N, p.NumPlans()); e.Sweeps != want {
			t.Errorf("bisection of %d queries: %d sweeps, want %d", e.N, e.Sweeps, want)
		}
		cuts += e.Value
	}
	// Every discarded saving is cut by exactly one bisection.
	if math.Abs(cuts-res.DiscardedSavings) > 1e-9*res.DiscardedSavings {
		t.Errorf("bisection cuts sum to %v, discarded savings %v", cuts, res.DiscardedSavings)
	}
	// The top-level bisection of a two-way partitioning is checked against
	// the graph directly.
	opt.Capacity = p.NumPlans() - 1
	sink = obs.NewCollector(nil)
	if res, err = Partition(obs.NewContext(context.Background(), sink), p, opt); err != nil {
		t.Fatal(err)
	}
	if len(res.QuerySets) != 2 {
		t.Fatalf("%d query sets, want 2", len(res.QuerySets))
	}
	g := BuildGraph(p)
	a, b := res.QuerySets[0], res.QuerySets[1]
	for _, e := range sink.Events() {
		if e.Name != "bisect" {
			continue
		}
		if math.Float64bits(e.Value) != math.Float64bits(g.CutWeight(a, b)) {
			t.Errorf("bisect Value %v, cut weight %v", e.Value, g.CutWeight(a, b))
		}
		if want := math.Abs(g.PlanWeight(a) - g.PlanWeight(b)); e.Extra != want {
			t.Errorf("bisect Extra %v, imbalance %v", e.Extra, want)
		}
	}
}

func TestBisectionSweeps(t *testing.T) {
	cases := []struct{ total, n, plans, want int }{
		{0, 256, 1536, 0},                          // device default
		{153600, 256, 1536, 25600},                 // 100 steps per plan
		{153600, 108, 1536, 10800},                 // deepest cold-partitioned bisection
		{1001, 5, 96, 53},                          // ⌈5005/96⌉
		{1, 2, 1000, 1},                            // floor of one step
		{math.MaxInt32, 1 << 20, 1 << 21, 1 << 30}, // no int overflow
	}
	for _, tc := range cases {
		if got := bisectionSweeps(tc.total, tc.n, tc.plans); got != tc.want {
			t.Errorf("bisectionSweeps(%d, %d, %d) = %d, want %d", tc.total, tc.n, tc.plans, got, tc.want)
		}
	}
}
