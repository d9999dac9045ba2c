package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseSpecChaosDirectives(t *testing.T) {
	cfg, err := ParseSpec("kill-worker-every=3,slow-worker-every=4,slow-worker-delay=20ms,journal-fail-every=5")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		KillWorkerEvery: 3, SlowWorkerEvery: 4,
		SlowWorkerDelay: 20 * time.Millisecond, JournalFailEvery: 5,
	}
	if cfg != want {
		t.Errorf("ParseSpec = %+v, want %+v", cfg, want)
	}
	// Chaos-only specs do not enable the device wrapper...
	if cfg.enabled() {
		t.Error("chaos-only spec enabled the device wrapper")
	}
	// ...but do enable the serve-layer fault source.
	if NewChaos(cfg) == nil {
		t.Error("chaos-only spec produced no Chaos")
	}
	// And device-only specs produce no Chaos.
	devCfg, err := ParseSpec("transient-first=2")
	if err != nil {
		t.Fatal(err)
	}
	if NewChaos(devCfg) != nil {
		t.Error("device-only spec produced a Chaos")
	}
}

func TestParseSpecStructuredErrors(t *testing.T) {
	cases := []struct {
		spec          string
		wantToken     string
		wantDirective string
		wantReason    string // substring
	}{
		{"bogus=1", "bogus=1", "bogus", "unknown directive"},
		{"transient-first=2,wat", "wat", "wat", "unknown directive"},
		{"kill-worker-every", "kill-worker-every", "kill-worker-every", "needs a value"},
		{"kill-worker-every=x", "kill-worker-every=x", "kill-worker-every", "not a non-negative integer"},
		{"slow-worker-delay=fast", "slow-worker-delay=fast", "slow-worker-delay", "not a non-negative duration"},
		{"slow-worker-delay=-1s", "slow-worker-delay=-1s", "slow-worker-delay", "not a non-negative duration"},
		{"journal-fail-every=-2", "journal-fail-every=-2", "journal-fail-every", "not a non-negative integer"},
		{"corrupt=7", "corrupt=7", "corrupt", "not in (0, 1]"},
		{"latency", "latency", "latency", "needs a duration"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", c.spec)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("ParseSpec(%q) error is %T, want *SpecError", c.spec, err)
			continue
		}
		if se.Token != c.wantToken {
			t.Errorf("ParseSpec(%q): Token %q, want %q", c.spec, se.Token, c.wantToken)
		}
		if se.Directive != c.wantDirective {
			t.Errorf("ParseSpec(%q): Directive %q, want %q", c.spec, se.Directive, c.wantDirective)
		}
		if !strings.Contains(se.Reason, c.wantReason) {
			t.Errorf("ParseSpec(%q): Reason %q, want substring %q", c.spec, se.Reason, c.wantReason)
		}
		// The message must teach the full grammar: every valid directive
		// appears in it, the serve-layer ones included.
		msg := err.Error()
		for _, d := range ValidDirectives {
			if !strings.Contains(msg, d) {
				t.Errorf("ParseSpec(%q) error omits valid directive %q: %s", c.spec, d, msg)
			}
		}
	}
}

func TestChaosSchedules(t *testing.T) {
	ch := NewChaos(Config{KillWorkerEvery: 3, SlowWorkerEvery: 2, SlowWorkerDelay: 5 * time.Millisecond, JournalFailEvery: 2})
	var kills, slows int
	for i := 0; i < 12; i++ {
		kill, d := ch.NextSolve(true)
		if kill {
			kills++
		}
		if d != 0 {
			if d != 5*time.Millisecond {
				t.Errorf("slow delay %v, want 5ms", d)
			}
			slows++
		}
	}
	if kills != 4 {
		t.Errorf("12 attempts at kill-every=3: %d kills, want 4", kills)
	}
	if slows != 6 {
		t.Errorf("12 attempts at slow-every=2: %d slows, want 6", slows)
	}
	var jfails int
	for i := 0; i < 10; i++ {
		if ch.FailNextJournalWrite() {
			jfails++
		}
	}
	if jfails != 5 {
		t.Errorf("10 writes at journal-fail-every=2: %d failures, want 5", jfails)
	}
	st := ch.Stats()
	if st.SlowedSolves != slows || st.JournalFailures != jfails {
		t.Errorf("stats %+v disagree with observed slows=%d jfails=%d", st, slows, jfails)
	}

	// An attempt that cannot be killed still advances the schedule.
	ch3 := NewChaos(Config{KillWorkerEvery: 2})
	for i := 1; i <= 6; i++ {
		kill, _ := ch3.NextSolve(i > 4)
		if kill != (i == 6) {
			t.Errorf("attempt %d at kill-every=2, killable %v: kill %v", i, i > 4, kill)
		}
	}

	// Default slow delay.
	ch2 := NewChaos(Config{SlowWorkerEvery: 1})
	if _, d := ch2.NextSolve(false); d != 50*time.Millisecond {
		t.Errorf("default slow delay %v, want 50ms", d)
	}
}

func TestChaosNilSafe(t *testing.T) {
	var ch *Chaos
	kill, d := ch.NextSolve(true)
	if kill {
		t.Error("nil Chaos killed a solve")
	}
	if d != 0 {
		t.Error("nil Chaos slowed a solve")
	}
	if ch.FailNextJournalWrite() {
		t.Error("nil Chaos failed a journal write")
	}
	if ch.Stats() != (ChaosStats{}) {
		t.Error("nil Chaos has stats")
	}
}
