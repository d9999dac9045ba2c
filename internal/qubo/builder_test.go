package qubo

import "testing"

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	b := NewBuilder(2)
	assertPanics("AddLinear(-1)", func() { b.AddLinear(-1, 1) })
	assertPanics("AddLinear(2)", func() { b.AddLinear(2, 1) })
	assertPanics("AddQuadratic(0,5)", func() { b.AddQuadratic(0, 5, 1) })
	assertPanics("NewBuilder(-1)", func() { NewBuilder(-1) })
}

func TestEnergyPanicsOnWrongLength(t *testing.T) {
	b := NewBuilder(3)
	b.AddLinear(0, 1)
	m := b.Build()
	defer func() {
		if recover() == nil {
			t.Error("Energy accepted short state")
		}
	}()
	m.Energy([]int8{1})
}

func TestTermsSortedAndDegree(t *testing.T) {
	b := NewBuilder(4)
	b.AddQuadratic(2, 3, 1)
	b.AddQuadratic(0, 1, 1)
	b.AddQuadratic(0, 3, 1)
	m := b.Build()
	terms := m.Terms()
	for i := 1; i < len(terms); i++ {
		prev, cur := terms[i-1], terms[i]
		if cur.I < prev.I || (cur.I == prev.I && cur.J < prev.J) {
			t.Fatalf("terms unsorted: %+v", terms)
		}
	}
	if m.Degree(0) != 2 || m.Degree(3) != 2 || m.Degree(2) != 1 {
		t.Errorf("degrees = %d, %d, %d", m.Degree(0), m.Degree(3), m.Degree(2))
	}
}
