package bench

import (
	"context"
	"strings"
	"testing"
)

// TestAblationDAGSmoke runs the execution-order ablation at smoke scale and
// pins its acceptance property: sequential and DAG-parallel quality columns
// are identical (the solves are bit-identical; the formatted cells must be
// too).
func TestAblationDAGSmoke(t *testing.T) {
	scale := SmokeScale()
	r, err := AblationDAG(context.Background(), ConfigFor(scale), scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != scale.Instances {
		t.Fatalf("rows = %d, want %d", len(r.Rows), scale.Instances)
	}
	for _, row := range r.Rows {
		shape, costSeq, costDAG, reapSeq, reapDAG := row[1], row[2], row[3], row[5], row[6]
		if strings.HasSuffix(shape, "×1") {
			t.Errorf("%s: sparse stride topology serialised into singleton waves (%s)", row[0], shape)
		}
		if costSeq != costDAG {
			t.Errorf("%s: cost diverged between orders: seq %s, dag %s", row[0], costSeq, costDAG)
		}
		if reapSeq != reapDAG {
			t.Errorf("%s: reapplied savings diverged: seq %s, dag %s", row[0], reapSeq, reapDAG)
		}
	}
	if !strings.Contains(r.String(), "ablation-dag") {
		t.Error("report missing its ID")
	}
}
