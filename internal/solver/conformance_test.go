// Device conformance suite: every annealing device must honour the same
// solver.Solver contract — deterministic Samples for any Parallelism, results
// unchanged by an attached observability sink, a context deadline bounding
// wall-clock time, and graceful best-so-far returns on context cancellation.
// The suite lives outside the device packages so one table covers them all.
package solver_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"incranneal/internal/da"
	catalogue "incranneal/internal/devices"
	"incranneal/internal/faultinject"
	"incranneal/internal/hqa"
	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/resilience"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
	"incranneal/internal/va"
)

// devices builds every device of the catalogue, so each one is held to
// the contract.
func devices() []solver.Solver {
	var devs []solver.Solver
	for _, name := range catalogue.Names {
		dev, err := catalogue.New(name, 0)
		if err != nil {
			panic(err)
		}
		devs = append(devs, dev)
	}
	return devs
}

func deviceName(s solver.Solver) string {
	if _, ok := s.(*da.PT); ok {
		return "da-pt"
	}
	return s.Name()
}

// conformanceModel builds a deterministic, frustrated 20-variable QUBO —
// small enough for every device, structured enough that runs actually move.
func conformanceModel() *qubo.Model {
	const n = 20
	b := qubo.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddLinear(i, float64((i*7)%5)-2.0)
		for j := i + 1; j < n && j <= i+4; j++ {
			b.AddQuadratic(i, j, float64((i*3+j*5)%7)-3.0)
		}
	}
	return b.Build()
}

func sameSamples(a, b []solver.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Energy != b[i].Energy || len(a[i].Assignment) != len(b[i].Assignment) {
			return false
		}
		for k := range a[i].Assignment {
			if a[i].Assignment[k] != b[i].Assignment[k] {
				return false
			}
		}
	}
	return true
}

func checkResult(t *testing.T, m *qubo.Model, res *solver.Result) {
	t.Helper()
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	for i, s := range res.Samples {
		if len(s.Assignment) != m.NumVariables() {
			t.Fatalf("sample %d: assignment length %d, want %d", i, len(s.Assignment), m.NumVariables())
		}
		if e := m.Energy(s.Assignment); math.Abs(e-s.Energy) > 1e-6 {
			t.Errorf("sample %d: reported energy %v, recomputed %v", i, s.Energy, e)
		}
		if i > 0 && res.Samples[i].Energy < res.Samples[i-1].Energy {
			t.Errorf("samples not sorted: [%d]=%v < [%d]=%v", i, res.Samples[i].Energy, i-1, res.Samples[i-1].Energy)
		}
	}
}

// TestDeviceConformanceDeterminism pins the Parallelism contract: Samples
// are bit-identical for sequential, single-worker and multi-worker
// execution, and an attached observability sink changes nothing.
func TestDeviceConformanceDeterminism(t *testing.T) {
	m := conformanceModel()
	for _, dev := range devices() {
		t.Run(deviceName(dev), func(t *testing.T) {
			base := solver.Request{Model: m, Runs: 4, Sweeps: 300, Seed: 7}
			var ref *solver.Result
			for _, par := range []int{-1, 1, 4} {
				req := base
				req.Parallelism = par
				res, err := dev.Solve(context.Background(), req)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				checkResult(t, m, res)
				if ref == nil {
					ref = res
				} else if !sameSamples(ref.Samples, res.Samples) {
					t.Errorf("parallelism %d changed samples", par)
				}
			}
			// Tracing and metrics attached: still bit-identical.
			reg := obs.NewRegistry()
			ctx := obs.NewContext(context.Background(), obs.NewCollector(reg))
			req := base
			req.Parallelism = 4
			res, err := dev.Solve(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSamples(ref.Samples, res.Samples) {
				t.Error("observability sink changed samples")
			}
		})
	}
}

// TestDeviceConformanceMiddlewareTransparency pins the resilience contract:
// with no faults in play, every middleware layer — and the full composed
// stack, including a zero-config fault injector — is invisible. Samples stay
// bit-identical to the bare device for every Parallelism value.
func TestDeviceConformanceMiddlewareTransparency(t *testing.T) {
	m := conformanceModel()
	middlewares := []struct {
		name string
		wrap func(dev solver.Solver) solver.Solver
	}{
		{"retry", func(dev solver.Solver) solver.Solver {
			return resilience.NewRetry(dev, resilience.RetryConfig{Attempts: 3, Base: time.Millisecond, Seed: 11})
		}},
		{"timeout", func(dev solver.Solver) solver.Solver {
			return &resilience.Timeout{Inner: dev, D: time.Minute}
		}},
		{"breaker", func(dev solver.Solver) solver.Solver {
			return resilience.NewBreaker(dev, 2, 0)
		}},
		{"fallback", func(dev solver.Solver) solver.Solver {
			return &resilience.Fallback{Devices: []solver.Solver{dev, &sa.Solver{}}}
		}},
		{"faultinject-disabled", func(dev solver.Solver) solver.Solver {
			return faultinject.New(dev, faultinject.Config{})
		}},
		{"full-stack", func(dev solver.Solver) solver.Solver {
			return resilience.Wrap(
				[]solver.Solver{faultinject.New(dev, faultinject.Config{}), &sa.Solver{}},
				resilience.Config{Retries: 2, SolveTimeout: time.Minute, BreakerThreshold: 3, Seed: 11},
			)
		}},
	}
	for _, dev := range devices() {
		t.Run(deviceName(dev), func(t *testing.T) {
			base := solver.Request{Model: m, Runs: 4, Sweeps: 300, Seed: 7}
			refs := map[int]*solver.Result{}
			for _, par := range []int{-1, 1, 4} {
				req := base
				req.Parallelism = par
				ref, err := dev.Solve(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				refs[par] = ref
			}
			for _, mw := range middlewares {
				t.Run(mw.name, func(t *testing.T) {
					wrapped := mw.wrap(dev)
					for _, par := range []int{-1, 1, 4} {
						req := base
						req.Parallelism = par
						res, err := wrapped.Solve(context.Background(), req)
						if err != nil {
							t.Fatalf("parallelism %d: %v", par, err)
						}
						checkResult(t, m, res)
						if !sameSamples(refs[par].Samples, res.Samples) {
							t.Errorf("parallelism %d: middleware changed samples", par)
						}
					}
				})
			}
		})
	}
}

// TestDeviceConformanceTimeBudget pins that a wall-clock budget — a context
// deadline, here set per call by the resilience.Timeout middleware that
// -solve-timeout configures — cuts an otherwise enormous sweep budget short
// while still returning valid samples.
func TestDeviceConformanceTimeBudget(t *testing.T) {
	m := conformanceModel()
	for _, dev := range devices() {
		t.Run(deviceName(dev), func(t *testing.T) {
			// 2M sweeps is ~20× what 50ms can execute, while keeping the
			// precomputed temperature schedule small enough to build fast.
			req := solver.Request{Model: m, Runs: 2, Sweeps: 2_000_000, Seed: 3, Parallelism: -1}
			start := time.Now()
			res, err := resilience.NewTimeout(dev, 50*time.Millisecond).Solve(context.Background(), req)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, m, res)
			// Generous bound: the budget is 50ms; devices check the deadline
			// at sweep granularity, so allow a wide margin before failing.
			if elapsed > 5*time.Second {
				t.Errorf("time budget ignored: ran %v for a 50ms budget", elapsed)
			}
		})
	}
}

// TestDeviceConformanceCancellation pins the Solver doc contract:
// cancellation mid-solve returns the best state found so far, not an error.
func TestDeviceConformanceCancellation(t *testing.T) {
	m := conformanceModel()
	for _, dev := range devices() {
		t.Run(deviceName(dev), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			req := solver.Request{Model: m, Runs: 2, Sweeps: 2_000_000, Seed: 3, Parallelism: -1}
			start := time.Now()
			res, err := dev.Solve(ctx, req)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("cancellation must yield best-so-far, got error: %v", err)
			}
			checkResult(t, m, res)
			if elapsed > 5*time.Second {
				t.Errorf("cancellation ignored: ran %v past a 30ms context", elapsed)
			}
		})
	}
}

// goldenModel is a deterministic 64-variable spin-glass-like QUBO with
// Gaussian coefficients: large enough that SolveLarge at capacity 16
// decomposes it and hqa at sub-capacity 16 carves subproblems out of it,
// rugged enough that short runs end in different states, and irregular
// enough that any change to a device's float association shows.
func goldenModel() *qubo.Model {
	const n = 64
	rng := rand.New(rand.NewSource(41))
	b := qubo.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddLinear(i, 2*rng.NormFloat64())
		for j := i + 1; j < n && j <= i+6; j++ {
			b.AddQuadratic(i, j, 4*rng.NormFloat64())
		}
		b.AddQuadratic(i, (i+n/2)%n, 4*rng.NormFloat64())
	}
	return b.Build()
}

// fingerprint renders a result bit-exactly: its sweep count, then per
// sample the energy's IEEE-754 bits and an FNV-1a hash of the assignment.
func fingerprint(res *solver.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweeps=%d", res.Sweeps)
	for _, s := range res.Samples {
		h := fnv.New64a()
		for _, v := range s.Assignment {
			h.Write([]byte{byte(v)})
		}
		fmt.Fprintf(&b, " %016x/%016x", math.Float64bits(s.Energy), h.Sum64())
	}
	return b.String()
}

// goldenDevices pins the exact output of the devices whose kernels have no
// golden test of their own (internal/da pins Solve and SolvePT), cold and
// warm. Any change to a device's seeding, start states, RNG draw order or
// float association shows here.
var goldenDevices = map[string]string{
	"sa": "sweeps=48" +
		" c070a71bb41daf35/82082b459d3bd31a" +
		" c07063274494a6a3/a37a8758f6713730" +
		" c0704664e64b3902/a0ef737d7aedcc99" +
		" c070109dc64a485e/9724c1bf29bd6c95",
	"sa-warm": "sweeps=48" +
		" c07081f152285507/473cb01084ad2dbc" +
		" c07063274494a6a3/a37a8758f6713730" +
		" c0704664e64b3902/a0ef737d7aedcc99" +
		" c06ff2d2d6643eef/f5cc73194b8688a1",
	"va": "sweeps=12" +
		" c070a71bb41daf35/82082b459d3bd31a" +
		" c070a71bb41daf35/82082b459d3bd31a" +
		" c070a71bb41daf35/82082b459d3bd31a" +
		" c070a71bb41daf35/82082b459d3bd31a",
	"va-warm": "sweeps=12" +
		" c070ade54bab98c3/2f4567945ae79e3f" +
		" c070ade54bab98c3/2f4567945ae79e3f" +
		" c070a71bb41daf36/82082b459d3bd31a" +
		" c070a71bb41daf36/82082b459d3bd31a",
	"hqa": "sweeps=3600" +
		" c070ade54bab98c4/2f4567945ae79e3f" +
		" c070ade54bab98c2/2f4567945ae79e3f" +
		" c07095d70d656da2/5a8a90deb28120d4",
	"hqa-warm": "sweeps=3600" +
		" c070ade54bab98c2/2f4567945ae79e3f" +
		" c0704664e64b3902/a0ef737d7aedcc99" +
		" c0701136fb8a254a/7b74ee5529d389bc",
	"da-large": "sweeps=8000" +
		" c07095d70d656da4/5a8a90deb28120d4",
	"da-large-warm": "sweeps=8000" +
		" c07095d70d656da4/5a8a90deb28120d4",
	"da-single-flip": "sweeps=1600" +
		" c07077078b059d9b/eadf70ce0c9acd88" +
		" c07069cfb91af5e0/b3d7e431dcb4ee24" +
		" c06f670e4fec2175/81c6283dcc4d3e1f" +
		" c06ee915b2cc1d50/e99c153f9cbb023f",
	"da-single-flip-warm": "sweeps=1600" +
		" c07069cfb91af5e0/b3d7e431dcb4ee24" +
		" c06f670e4fec2175/81c6283dcc4d3e1f" +
		" c06f54ba15f3bfd3/7e428cecb5e122f6" +
		" c06e4bdd716bd85b/7b7515969bdcf8f3",
}

// TestDeviceConformanceGolden checks every goldenDevices entry sequentially,
// on four workers and on four workers with a collector sink attached: all
// three must print the recorded fingerprint.
func TestDeviceConformanceGolden(t *testing.T) {
	m := goldenModel()
	warm := make([]int8, m.NumVariables())
	wr := rand.New(rand.NewSource(9))
	for i := range warm {
		warm[i] = int8(wr.Intn(2))
	}
	cases := []struct {
		name  string
		solve func(context.Context, solver.Request) (*solver.Result, error)
		req   solver.Request
	}{
		{"sa", (&sa.Solver{}).Solve, solver.Request{Runs: 4, Sweeps: 12, Seed: 51}},
		{"va", (&va.Solver{}).Solve, solver.Request{Runs: 4, Sweeps: 12, Seed: 52}},
		{"hqa", (&hqa.Solver{SubCapacity: 16}).Solve, solver.Request{Runs: 3, Sweeps: 3, Seed: 53}},
		{"da-large", (&da.Solver{CapacityVars: 16}).SolveLarge, solver.Request{Runs: 2, Sweeps: 3000, Seed: 54}},
		{"da-single-flip", (&da.Solver{SingleFlip: true}).Solve, solver.Request{Runs: 4, Sweeps: 400, Seed: 55}},
	}
	for _, c := range cases {
		for _, w := range []struct {
			suffix string
			warm   []int8
		}{{"", nil}, {"-warm", warm}} {
			name := c.name + w.suffix
			t.Run(name, func(t *testing.T) {
				base := c.req
				base.Model, base.Warm = m, w.warm
				var got string
				for _, v := range []struct {
					par  int
					sink bool
				}{{-1, false}, {4, false}, {4, true}} {
					ctx := context.Background()
					if v.sink {
						ctx = obs.NewContext(ctx, obs.NewCollector(obs.NewRegistry()))
					}
					req := base
					req.Parallelism = v.par
					res, err := c.solve(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					checkResult(t, m, res)
					fp := fingerprint(res)
					if got == "" {
						got = fp
					} else if fp != got {
						t.Errorf("parallelism %d (sink %v) changed the result:\n got %s\nwant %s", v.par, v.sink, fp, got)
					}
				}
				if want := goldenDevices[name]; got != want {
					t.Errorf("\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}
