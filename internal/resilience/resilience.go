// Package resilience provides composable middleware around the
// solver.Solver interface: bounded Retry with deterministic exponential
// backoff, a per-solve Timeout, a consecutive-failure circuit Breaker and an
// ordered device Fallback chain. Each middleware is itself a solver.Solver
// (and a solver.LargeSolver when its inner device is one), so layers stack
// freely; Wrap applies the canonical composition
//
//	Fallback( Breaker(Retry(Timeout(primary))), Breaker(Retry(Timeout(alt))), ... )
//
// i.e. per-device local recovery first (retry transient errors under a
// deadline, trip the breaker when the device looks dead), then cross-device
// escalation.
//
// Two invariants carry over from the device layer:
//
//   - Determinism off the failure path. With no faults, the first attempt
//     succeeds, the breaker stays closed and the primary device answers, so a
//     wrapped pipeline returns bit-identical samples to the bare device for
//     any Request.Parallelism (pinned by the conformance suite). Backoff
//     jitter is a pure function of the configured seed, the request seed and
//     the attempt index — never wall-clock or global RNG — so even failure
//     paths replay identically when device solves are issued sequentially.
//   - Error taxonomy. Only errors marked with solver.MarkTransient are
//     retried; everything else (capacity, programming errors, injected
//     terminal faults, breaker-open) escalates immediately to the next layer.
//
// All middleware emit obs events ("retry", "trip", "fallback") and counters
// when a sink is on the context, and emit nothing otherwise.
//
// State (breaker trip counts, retry budgets) lives inside the wrapped
// stack, not in globals: callers that need isolated failure domains build
// one stack per domain — the serving fleet (internal/serve) builds one per
// worker slot, so a device tripping on one slot does not poison the others.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"incranneal/internal/solver"
)

// Config parameterises the canonical Wrap composition. The zero value adds
// no middleware at all: Wrap then returns the primary device unchanged.
type Config struct {
	// Retries is the number of re-attempts after a failed solve (so
	// Retries=2 means up to 3 attempts). 0 disables the Retry layer.
	Retries int
	// RetryBase is the backoff before the first re-attempt; it doubles per
	// attempt. 0 means 5ms.
	RetryBase time.Duration
	// SolveTimeout bounds each device solve; on expiry the device returns
	// its best-so-far samples (the device cancellation contract). 0
	// disables the Timeout layer.
	SolveTimeout time.Duration
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive failed solves. 0 disables the Breaker layer.
	BreakerThreshold int
	// Seed drives the deterministic backoff jitter.
	Seed int64
}

func (c Config) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 5 * time.Millisecond
}

// Wrap composes the configured middleware around each device and chains the
// devices into a Fallback (first device is the primary). Retry backoff is
// capped at 250ms before jitter, and a tripped Breaker stays open. With a
// zero Config and a single device, the device is returned unchanged.
func Wrap(devs []solver.Solver, cfg Config) solver.Solver {
	if len(devs) == 0 {
		return nil
	}
	wrapped := make([]solver.Solver, len(devs))
	for i, dev := range devs {
		s := dev
		if cfg.SolveTimeout > 0 {
			s = NewTimeout(s, cfg.SolveTimeout)
		}
		if cfg.Retries > 0 {
			s = NewRetry(s, RetryConfig{
				Attempts: cfg.Retries + 1,
				Base:     cfg.retryBase(),
				Max:      250 * time.Millisecond,
				Seed:     cfg.Seed,
			})
		}
		if cfg.BreakerThreshold > 0 {
			s = NewBreaker(s, cfg.BreakerThreshold, 0)
		}
		wrapped[i] = s
	}
	if len(wrapped) == 1 {
		return wrapped[0]
	}
	return NewFallback(wrapped)
}

// AttemptsError reports how many attempts a Retry layer (or a Fallback
// chain) consumed before giving up. Callers that need the count without
// importing this package can extract it structurally:
//
//	var ae interface{ Attempts() int }
//	if errors.As(err, &ae) { n := ae.Attempts() }
type AttemptsError struct {
	Count int
	Err   error
}

func (e *AttemptsError) Error() string {
	return fmt.Sprintf("after %d attempts: %v", e.Count, e.Err)
}

func (e *AttemptsError) Unwrap() error { return e.Err }

// Attempts returns the number of solve attempts consumed.
func (e *AttemptsError) Attempts() int { return e.Count }

// withAttempts wraps err with an attempt count, collapsing nested counts
// into their sum so a Fallback over Retry layers reports total work.
func withAttempts(err error, n int) error {
	if err == nil {
		return nil
	}
	var prev *AttemptsError
	if errors.As(err, &prev) {
		// Keep the innermost cause; the outer layer owns the total.
		return &AttemptsError{Count: n, Err: prev.Err}
	}
	return &AttemptsError{Count: n, Err: err}
}

// attemptCount extracts a nested attempt count, defaulting to 1 (the solve
// itself) when none is recorded.
func attemptCount(err error) int {
	var ae *AttemptsError
	if errors.As(err, &ae) {
		return ae.Count
	}
	return 1
}

// jitterFrac returns a deterministic jitter fraction in [0, 1) derived from
// the middleware seed, the request seed and the attempt index. Pure
// function: the same triple always yields the same fraction, so backoff
// schedules replay identically run to run.
func jitterFrac(seed, reqSeed int64, attempt int) float64 {
	src := rand.NewSource(seed ^ (reqSeed * 0x9E3779B9) ^ int64(attempt)*0x85EBCA6B)
	return rand.New(src).Float64()
}
