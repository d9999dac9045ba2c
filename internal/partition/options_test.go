package partition

import "testing"

func TestOptionsParsesDefaults(t *testing.T) {
	cases := []struct {
		in   int
		want int
	}{
		{0, 4},  // paper default
		{-1, 0}, // disabled
		{7, 7},  // explicit
	}
	for _, tc := range cases {
		o := Options{PostProcessParses: tc.in}
		if got := o.parses(); got != tc.want {
			t.Errorf("parses(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestOptionsMinSize(t *testing.T) {
	o := Options{} // a quarter of the queries, at least 1
	if got := o.minSize(40); got != 10 {
		t.Errorf("minSize(40) = %d, want 10", got)
	}
	if got := o.minSize(2); got != 1 {
		t.Errorf("minSize(2) = %d, want floor 1", got)
	}
}

func TestPostProcessZeroParsesIsNoOp(t *testing.T) {
	p1, p2 := PostProcess(nil, []int{0, 2}, []int{1, 3}, 0, 1)
	if len(p1) != 2 || len(p2) != 2 {
		t.Errorf("zero parses changed partitions: %v | %v", p1, p2)
	}
}
