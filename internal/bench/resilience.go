package bench

import (
	"fmt"
	"strings"
	"time"

	"incranneal/internal/da"
	"incranneal/internal/faultinject"
	"incranneal/internal/hqa"
	"incranneal/internal/resilience"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
	"incranneal/internal/va"
)

// DeviceByName constructs one of the repository's annealing devices for a
// fallback chain. daCapacity sizes the DA-backed devices (0: hardware
// default). Names: da, da-pt, sa, hqa, va.
func DeviceByName(name string, daCapacity int) (solver.Solver, error) {
	switch strings.TrimSpace(name) {
	case "da":
		return &da.Solver{CapacityVars: daCapacity}, nil
	case "da-pt":
		return &da.PT{Solver: &da.Solver{CapacityVars: daCapacity}}, nil
	case "sa":
		return &sa.Solver{}, nil
	case "hqa":
		return &hqa.Solver{}, nil
	case "va":
		return &va.Solver{}, nil
	default:
		return nil, fmt.Errorf("unknown device %q (want da, da-pt, sa, hqa or va)", name)
	}
}

// MiddlewareSpec captures the resilience and fault-injection CLI flags
// shared by mqosolve and mqobench, and builds the device middleware they
// configure: the (optionally fault-injected) primary device wrapped in the
// canonical resilience composition, chained before the -fallback devices.
type MiddlewareSpec struct {
	// Retries is the -retries flag: re-attempts per solve for transient
	// failures.
	Retries int
	// SolveTimeout is the -solve-timeout flag: per-solve deadline.
	SolveTimeout time.Duration
	// Breaker is the -breaker flag: consecutive failures tripping the
	// per-device circuit breaker.
	Breaker int
	// Fallback is the -fallback flag: comma-separated device names tried
	// in order after the primary (e.g. "da,sa").
	Fallback string
	// InjectFaults is the -inject-faults flag, in faultinject.ParseSpec
	// grammar. Faults wrap only the primary device, so fallback devices
	// model healthy spares.
	InjectFaults string
	// Seed drives backoff jitter and fault corruption.
	Seed int64
	// DACapacity sizes DA-backed fallback devices.
	DACapacity int
}

// Enabled reports whether any middleware is configured.
func (s MiddlewareSpec) Enabled() bool {
	return s.Retries > 0 || s.SolveTimeout > 0 || s.Breaker > 0 ||
		strings.TrimSpace(s.Fallback) != "" || strings.TrimSpace(s.InjectFaults) != ""
}

// Middleware returns the device wrapper the spec describes, or nil when
// nothing is configured.
func (s MiddlewareSpec) Middleware() (func(solver.Solver) solver.Solver, error) {
	if !s.Enabled() {
		return nil, nil
	}
	ficfg, err := faultinject.ParseSpec(s.InjectFaults)
	if err != nil {
		return nil, err
	}
	if ficfg.Seed == 0 {
		ficfg.Seed = s.Seed
	}
	var chainTail []solver.Solver
	if fb := strings.TrimSpace(s.Fallback); fb != "" {
		for _, name := range strings.Split(fb, ",") {
			dev, err := DeviceByName(name, s.DACapacity)
			if err != nil {
				return nil, err
			}
			chainTail = append(chainTail, dev)
		}
	}
	rcfg := resilience.Config{
		Retries:          s.Retries,
		SolveTimeout:     s.SolveTimeout,
		BreakerThreshold: s.Breaker,
		Seed:             s.Seed,
	}
	return func(dev solver.Solver) solver.Solver {
		chain := append([]solver.Solver{faultinject.Wrap(dev, ficfg)}, chainTail...)
		return resilience.Wrap(chain, rcfg)
	}, nil
}
