// Package solver defines the device-independent interface through which the
// MQO pipeline talks to QUBO solvers — classical simulated annealing, the
// Digital Annealer simulator and the hybrid quantum annealer simulator. The
// abstraction carries each device's variable capacity, so the partitioning
// phase can target any existing or future annealer (contribution 4 of the
// paper).
//
// Everything above this package builds on two properties of its contract:
// solves are pure functions of (Model, Runs, Sweeps, Seed) — per-run RNG
// streams derive from the seed before any work is dispatched, so results
// are identical at every Parallelism — and implementations are safe for
// use from one goroutine at a time per instance, which lets the serving
// fleet (internal/serve) give each worker slot its own device instances.
// Devices whose runs are independent execute them through Runs, which
// seeds, dispatches, traces and collects them in one place.
package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"incranneal/internal/qubo"
)

// Request describes one optimisation job. It carries no time budget: a
// solve's wall-clock bound is the deadline of the context it runs under,
// which every device checks between sweeps.
type Request struct {
	// Model is the QUBO to minimise.
	Model *qubo.Model
	// Runs is the number of independent annealing runs; each yields one
	// sample. The paper uses 16 runs per problem. Zero means the solver's
	// default.
	Runs int
	// Sweeps is the per-run iteration budget (Monte-Carlo sweeps over all
	// variables). The incremental strategy divides a constant total budget
	// across partitions, as in the paper's setup. Zero means the solver's
	// default.
	Sweeps int
	// Seed makes the run deterministic; runs derive sub-seeds from it.
	Seed int64
	// Parallelism bounds the worker goroutines executing the request's
	// independent runs; zero means GOMAXPROCS, negative forces sequential
	// execution. Solvers derive every run's RNG stream from Seed before
	// dispatch (see Runs), so Samples are identical for every Parallelism
	// setting.
	Parallelism int
	// Warm optionally seeds part of the runs (or replicas) from a known
	// assignment — the cross-solve cache's previous incumbent — instead of
	// a uniformly random state. Devices build starting states through
	// InitialState: the first WarmRuns-resolved runs start from Warm, the
	// rest stay random, so the warm solve keeps the cold runs' exploration.
	// Length must equal the model's variable count; an empty Warm is the
	// historical fully-random behaviour, bit for bit.
	Warm []int8
	// WarmRuns bounds how many runs start from Warm; zero means half of
	// the runs, rounded up. Ignored without Warm.
	WarmRuns int
}

// WarmRunCount resolves how many of runs start from the request's Warm
// assignment: WarmRuns when positive (capped at runs), otherwise half of
// runs rounded up. Zero without a Warm assignment.
func (r Request) WarmRunCount(runs int) int {
	if len(r.Warm) == 0 {
		return 0
	}
	w := r.WarmRuns
	if w <= 0 {
		w = (runs + 1) / 2
	}
	if w > runs {
		w = runs
	}
	return w
}

// Sample is one candidate assignment with its energy.
type Sample struct {
	Assignment []int8
	Energy     float64
}

// Result collects the samples of all runs of a request.
type Result struct {
	// Samples holds one entry per run, sorted by ascending energy.
	Samples []Sample
	// Sweeps is the total number of sweeps actually performed.
	Sweeps int
}

// Best returns the lowest-energy sample and true, or a zero Sample and
// false when the result holds no samples — possible when a device is
// cancelled before its first sweep completes, or when a remote call fails
// after the request was accepted. Callers must check the second return
// before using the sample.
func (r *Result) Best() (Sample, bool) {
	if len(r.Samples) == 0 {
		return Sample{}, false
	}
	return r.Samples[0], true
}

// SortSamples orders Samples by ascending energy (stable).
func (r *Result) SortSamples() {
	sort.SliceStable(r.Samples, func(i, j int) bool {
		return r.Samples[i].Energy < r.Samples[j].Energy
	})
}

// Solver is a QUBO minimiser with a device capacity.
type Solver interface {
	// Name identifies the device/algorithm (e.g. "sa", "da", "hqa").
	Name() string
	// Capacity returns the maximum number of variables the device can
	// encode, or 0 for no limit. Requests exceeding a non-zero capacity
	// fail with ErrCapacityExceeded.
	Capacity() int
	// Solve minimises the request's model. Implementations must respect
	// ctx cancellation and return the best state found so far on
	// cancellation rather than failing, unless no sample exists yet.
	Solve(ctx context.Context, req Request) (*Result, error)
}

// LargeSolver is implemented by devices that ship their own vendor
// decomposition for problems beyond their variable capacity (e.g. the
// Digital Annealer's default partitioning mode, which handles up to 100,000
// variables on the 8,192-variable device).
type LargeSolver interface {
	Solver
	// SolveLarge minimises a model of arbitrary size, decomposing it
	// internally when it exceeds the device capacity.
	SolveLarge(ctx context.Context, req Request) (*Result, error)
}

// ErrCapacityExceeded reports that a request's model does not fit the
// device.
var ErrCapacityExceeded = errors.New("solver: problem exceeds device variable capacity")

// TransientError marks a solve failure as retryable: the same request may
// succeed on a later attempt (rate limiting, a dropped connection, a busy
// remote queue). Errors not wrapped in a TransientError are terminal — the
// device cannot serve this request and callers should degrade or fail over
// instead of retrying. This is the error taxonomy the resilience middleware
// keys on: Retry only re-attempts transient errors, while terminal errors
// propagate immediately to the breaker and fallback layers.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// MarkTransient wraps err as retryable. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err is marked retryable anywhere in its chain.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// CheckCapacity returns ErrCapacityExceeded (wrapped with sizes) when the
// model of req does not fit s.
func CheckCapacity(s Solver, m *qubo.Model) error {
	if c := s.Capacity(); c > 0 && m.NumVariables() > c {
		return fmt.Errorf("%w: %d variables > capacity %d of %s", ErrCapacityExceeded, m.NumVariables(), c, s.Name())
	}
	return nil
}

// Interrupted reports whether ctx has been cancelled or has expired.
func Interrupted(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
