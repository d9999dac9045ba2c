package cpu

import "testing"

// TestEachVisitsEveryLevelAndRestores pins the contract the kernel tests
// rely on: Each lowers Vector to every level up to the probed one, in
// order, and leaves it as it found it.
func TestEachVisitsEveryLevelAndRestores(t *testing.T) {
	top := Vector
	var seen []Level
	Each(func(l Level) {
		if Vector != l {
			t.Errorf("inside Each(%v), Vector = %v", l, Vector)
		}
		seen = append(seen, l)
	})
	if len(seen) != int(top)+1 {
		t.Fatalf("Each visited %v, want every level up to %v", seen, top)
	}
	for i, l := range seen {
		if l != Level(i) {
			t.Fatalf("Each visited %v, want ascending from Scalar", seen)
		}
	}
	if Vector != top {
		t.Errorf("Vector = %v after Each, want %v restored", Vector, top)
	}
	t.Logf("this CPU runs the %v kernels", top)
}
