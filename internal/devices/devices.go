// Package devices is the repository's one device catalogue: the table from
// a device name to an annealing solver.Solver, and the one builder of the
// fault-injection and resilience stack around a device. The CLIs, the
// serving fleet and the experiment roster all build their devices here, so
// a name means the same device everywhere.
package devices

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

// Names lists the catalogue's devices in the order flag help and error
// messages print them.
var Names = []string{"da", "da-pt", "sa", "hqa", "va"}

// New builds the named device. capacity sizes the DA-backed devices (da,
// da-pt); 0 keeps the 8,192-variable hardware.
func New(name string, capacity int) (solver.Solver, error) {
	switch strings.TrimSpace(name) {
	case "da":
		return &da.Solver{CapacityVars: capacity}, nil
	case "da-pt":
		return &da.PT{Solver: &da.Solver{CapacityVars: capacity}}, nil
	case "sa":
		return &sa.Solver{}, nil
	case "hqa":
		return &hqa.Solver{}, nil
	case "va":
		return &va.Solver{}, nil
	}
	return nil, fmt.Errorf("unknown device %q (want %s)", name, strings.Join(Names, ", "))
}

// SplitNames splits a comma-separated device list, such as a -fallback
// flag, and drops blank entries.
func SplitNames(list string) []string {
	var names []string
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// Stack is the middleware configuration the -retries, -solve-timeout,
// -breaker, -fallback and -inject-faults flags describe: the optionally
// fault-injected primary device under the canonical resilience
// composition, chained before the fallback devices.
type Stack struct {
	// Retries is the number of re-attempts per solve on transient failures.
	Retries int
	// SolveTimeout is the per-solve deadline.
	SolveTimeout time.Duration
	// Breaker is the number of consecutive failures tripping a device's
	// circuit breaker.
	Breaker int
	// Fallback names the devices tried in order after the primary.
	Fallback []string
	// Faults is the fault schedule. It wraps only the primary device, so
	// fallback devices model healthy spares.
	Faults faultinject.Config
	// Seed drives backoff jitter, and fault corruption when Faults carries
	// no seed of its own.
	Seed int64
	// Capacity sizes DA-backed fallback devices.
	Capacity int
}

// Middleware builds the fallback devices once with newDev and returns the
// wrapper the stack describes. A zero Stack's wrapper returns the primary
// device unchanged.
func (s Stack) Middleware(newDev func(name string, capacity int) (solver.Solver, error)) (func(solver.Solver) solver.Solver, error) {
	tail := make([]solver.Solver, len(s.Fallback))
	for i, name := range s.Fallback {
		dev, err := newDev(name, s.Capacity)
		if err != nil {
			return nil, err
		}
		tail[i] = dev
	}
	faults := s.Faults
	if faults.Seed == 0 {
		faults.Seed = s.Seed
	}
	rcfg := resilience.Config{
		Retries:          s.Retries,
		SolveTimeout:     s.SolveTimeout,
		BreakerThreshold: s.Breaker,
		Seed:             s.Seed,
	}
	return func(dev solver.Solver) solver.Solver {
		chain := append([]solver.Solver{faultinject.Wrap(dev, faults)}, tail...)
		return resilience.Wrap(chain, rcfg)
	}, nil
}
