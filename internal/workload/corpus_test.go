package workload

import (
	"maps"
	"regexp"
	"strings"
	"testing"
)

func TestCorpusCounts(t *testing.T) {
	fileSafe := regexp.MustCompile(`^[a-z0-9.-]+$`)
	for _, tc := range []struct {
		scale     string
		classes   map[string]int
		instances int
	}{
		{"smoke", map[string]int{"fig3": 4, "fig4": 12, "fig5": 4, "fig6": 6}, 26},
		{"reduced", map[string]int{"fig3": 9, "fig4": 24, "fig5": 12, "fig6": 9}, 108},
		{"paper", map[string]int{"fig3": 12, "fig4": 32, "fig5": 16, "fig6": 12}, 216},
	} {
		c, err := CorpusByName(tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		classes := c.Classes()
		got := map[string]int{}
		ids := map[string]bool{}
		for _, cl := range classes {
			got[cl.Figure]++
			id := cl.Figure + "-" + cl.Name
			if ids[id] {
				t.Errorf("%s: duplicate class %q", tc.scale, id)
			}
			ids[id] = true
			if !fileSafe.MatchString(cl.Name) {
				t.Errorf("%s: class name %q is not file-safe", tc.scale, cl.Name)
			}
		}
		if !maps.Equal(got, tc.classes) {
			t.Errorf("%s: classes per figure %v, want %v", tc.scale, got, tc.classes)
		}
		if n := len(classes) * c.Instances; n != tc.instances {
			t.Errorf("%s: %d instances, want %d", tc.scale, n, tc.instances)
		}
	}
	if _, err := CorpusByName("huge"); err == nil || !strings.Contains(err.Error(), "smoke, reduced or paper") {
		t.Errorf("unknown scale: err %v, want one listing the scales", err)
	}
}

func TestCorpusEntriesGenerate(t *testing.T) {
	for _, cl := range SmokeCorpus().Classes() {
		p, err := cl.Generate(0)
		if err != nil {
			t.Fatalf("%s-%s: %v", cl.Figure, cl.Name, err)
		}
		if p.NumQueries() != cl.Queries {
			t.Errorf("%s-%s: %d queries, want %d", cl.Figure, cl.Name, p.NumQueries(), cl.Queries)
		}
	}
}

// TestCorpusSeedsAreStable pins instance 0 of each figure's first smoke
// class. The seeds in the names are the ones Figs. 3–6 have always solved,
// so a change here moves every figure's data rows.
func TestCorpusSeedsAreStable(t *testing.T) {
	want := map[string]string{
		"fig3": "sweep-q16-ppq3-c4-d[0.05,1.00]-s7076120193404846769",
		"fig4": "sweep-q16-ppq3-c1-d[0.05,1.00]-s7076119093893245007",
		"fig5": "sweep-q16-ppq3-c4-d[0.05,0.50]-s7076117994380861168",
		"fig6": "tpch-q16-ppq3-s3926714456847886020",
	}
	seen := map[string]bool{}
	for _, cl := range SmokeCorpus().Classes() {
		if seen[cl.Figure] {
			continue
		}
		seen[cl.Figure] = true
		p, err := cl.Generate(0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != want[cl.Figure] {
			t.Errorf("%s first instance %q, want %q", cl.Figure, p.Name, want[cl.Figure])
		}
	}
	if len(seen) != len(want) {
		t.Errorf("figures %v, want %d", seen, len(want))
	}
}

func TestClassSeedStable(t *testing.T) {
	a := ClassSeed("fig3", 250, 30, 1)
	b := ClassSeed("fig3", 250, 30, 1)
	if a != b {
		t.Error("ClassSeed not deterministic")
	}
	if ClassSeed("fig3", 250, 30, 1) == ClassSeed("fig3", 250, 30, 2) {
		t.Error("ClassSeed ignores the instance index")
	}
	if ClassSeed("fig3", 250, 30, 1) == ClassSeed("fig4", 250, 30, 1) {
		t.Error("ClassSeed ignores the label")
	}
	if a < 0 {
		t.Error("ClassSeed negative")
	}
}
