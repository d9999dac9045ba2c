package joinorder

import (
	"context"
	"errors"
	"testing"

	"incranneal/internal/faultinject"
	"incranneal/internal/sa"
)

// TestSolveFailsOnDeviceError pins that a join-ordering solve reports a
// bisection device error instead of degrading the split: the device
// below dies after its first solve, so the second bisection of the
// 32-relation query fails.
func TestSolveFailsOnDeviceError(t *testing.T) {
	g, err := GenerateCommunities(4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	dev := faultinject.New(&sa.Solver{}, faultinject.Config{TerminalAfter: 1})
	res, err := Solve(context.Background(), g, Options{Capacity: 10, Solver: dev, Runs: 2, Sweeps: 200, Seed: 2})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Solve on a failing device returned %v, %v; want the injected error", res, err)
	}
}
