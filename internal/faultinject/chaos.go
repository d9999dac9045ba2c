package faultinject

import (
	"sync"
	"time"
)

// Chaos is the serve-layer counterpart of Solver: where Solver injects
// faults between the pipeline and a device, Chaos injects them between the
// serving daemon and its own machinery — killing worker slots mid-solve,
// slowing workers past their watchdog budget, and failing admission-journal
// writes. The serve package polls it at each decision point; the chaos
// bench figure and the CI chaos smoke drive it via the same CLI spec
// grammar as the device faults (kill-worker-every=N, slow-worker-every=N,
// slow-worker-delay=DUR, journal-fail-every=N).
//
// Decisions are pure functions of per-kind call counters, so a schedule is
// reproducible for a fixed arrival order; under concurrent workers the
// interleaving picks which request absorbs each fault, which is the point
// of a chaos harness — the invariants must hold regardless.
//
// A nil *Chaos is valid and injects nothing, so callers thread it through
// unconditionally.
type Chaos struct {
	mu       sync.Mutex
	cfg      Config
	solves   int
	journals int
	stats    ChaosStats
}

// ChaosStats counts the serve-layer faults a Chaos actually injected. It
// has no kill count: serve kills an attempt only once its first checkpoint
// lands, so serve's serve.chaos.worker_kills counter is the one count.
type ChaosStats struct {
	SlowedSolves    int // solves delayed by the slow-worker schedule
	JournalFailures int // journal writes failed
}

// NewChaos builds a serve-layer fault source from cfg, nil when cfg
// schedules no serve-layer faults (device-level directives are ignored
// here; wrap the device with New/Wrap for those).
func NewChaos(cfg Config) *Chaos {
	if !cfg.chaosEnabled() {
		return nil
	}
	return &Chaos{cfg: cfg}
}

// chaosEnabled reports whether the schedule injects any serve-layer fault.
func (c Config) chaosEnabled() bool {
	return c.KillWorkerEvery > 0 || c.SlowWorkerEvery > 0 || c.JournalFailEvery > 0
}

// NextSolve advances the schedule by one solve attempt and reports whether
// the worker running it should be killed mid-flight (the serve layer
// cancels the solve context and requeues the request from its checkpoint)
// and how long it should stall before starting, zero for no stall. Every
// attempt counts towards both schedules, but only a killable attempt —
// one that can checkpoint and has attempts left — is killed.
func (c *Chaos) NextSolve(killable bool) (kill bool, delay time.Duration) {
	if c == nil {
		return false, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.solves++
	kill = killable && c.cfg.KillWorkerEvery > 0 && c.solves%c.cfg.KillWorkerEvery == 0
	if c.cfg.SlowWorkerEvery > 0 && c.solves%c.cfg.SlowWorkerEvery == 0 {
		c.stats.SlowedSolves++
		delay = c.cfg.SlowWorkerDelay
		if delay <= 0 {
			delay = 50 * time.Millisecond
		}
	}
	return kill, delay
}

// FailNextJournalWrite reports whether the next admission-journal write
// should fail, exercising the daemon's journal-degradation path (serve
// keeps accepting, counts the failure, and the request simply loses crash
// protection).
func (c *Chaos) FailNextJournalWrite() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journals++
	if c.cfg.JournalFailEvery > 0 && c.journals%c.cfg.JournalFailEvery == 0 {
		c.stats.JournalFailures++
		return true
	}
	return false
}

// Stats returns a snapshot of the injected-fault counters. Nil-safe.
func (c *Chaos) Stats() ChaosStats {
	if c == nil {
		return ChaosStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
