package devices

import (
	"bytes"
	"strings"
	"testing"

	"incranneal/internal/obs"
	"incranneal/internal/solver"
)

func TestEveryNameBuilds(t *testing.T) {
	for _, name := range Names {
		dev, err := New(name, 0)
		if err != nil || dev == nil {
			t.Errorf("New(%q) = %v, %v", name, dev, err)
		}
	}
	for _, name := range []string{"da", "da-pt"} {
		if dev, _ := New(name, 40); dev.Capacity() != 40 {
			t.Errorf("New(%q, 40) capacity %d, want 40", name, dev.Capacity())
		}
	}
}

func TestUnknownAndEmptyNamesFail(t *testing.T) {
	for _, name := range []string{"qpu9000", "", " "} {
		_, err := New(name, 0)
		if err == nil {
			t.Errorf("New(%q) succeeded", name)
			continue
		}
		if want := strings.Join(Names, ", "); !strings.Contains(err.Error(), want) {
			t.Errorf("New(%q) error %q does not list %q", name, err, want)
		}
	}
}

func TestSplitNames(t *testing.T) {
	got := SplitNames(" sa,, va ,")
	if strings.Join(got, "|") != "sa|va" {
		t.Errorf("SplitNames = %q, want [sa va]", got)
	}
	if got := SplitNames(""); len(got) != 0 {
		t.Errorf("SplitNames(\"\") = %q, want none", got)
	}
}

func TestZeroStackReturnsPrimary(t *testing.T) {
	mw, err := Stack{}.Middleware(New)
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := New("da", 0)
	if got := mw(dev); got != dev {
		t.Errorf("zero Stack wrapped the primary: %T", got)
	}
}

func TestStackBuildsFallbacksOnce(t *testing.T) {
	var built []string
	count := func(name string, capacity int) (solver.Solver, error) {
		built = append(built, name)
		return New(name, capacity)
	}
	mw, err := Stack{Fallback: []string{"sa", "va"}}.Middleware(count)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names {
		dev, _ := New(name, 0)
		mw(dev)
	}
	if strings.Join(built, ",") != "sa,va" {
		t.Errorf("constructor built %q, want each fallback once", built)
	}
	if _, err := (Stack{Fallback: []string{"sa", "qpu9000"}}).Middleware(New); err == nil {
		t.Error("unknown fallback accepted")
	}
}

// TestPrometheusLabelsEveryDevice ties obs's device-label list to the
// catalogue: every device's per-device counter renders with a device label.
func TestPrometheusLabelsEveryDevice(t *testing.T) {
	for _, name := range Names {
		reg := obs.NewRegistry()
		reg.Counter("anneal.sweeps." + name).Add(1)
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if want := `mqo_anneal_sweeps_total{device="` + name + `"}`; !strings.Contains(b.String(), want) {
			t.Errorf("%s: exposition lacks %s:\n%s", name, want, b.String())
		}
	}
}
