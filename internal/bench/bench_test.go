package bench

import (
	"context"
	"slices"
	"strings"
	"testing"

	"incranneal/internal/mqo"
	"incranneal/internal/workload"
)

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:      "test",
		Title:   "a table",
		Columns: []string{"alpha", "b"},
	}
	r.AddRow("1", "longer-cell")
	r.AddRow("22", "x")
	r.Notes = append(r.Notes, "a note")
	out := r.String()
	for _, want := range []string{"== test: a table ==", "alpha", "longer-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	csv := r.CSV()
	if !strings.Contains(csv, `"alpha","b"`) || !strings.Contains(csv, `"22","x"`) {
		t.Errorf("CSV malformed:\n%s", csv)
	}
}

func TestCSVQuotesEmbeddedQuotes(t *testing.T) {
	r := &Report{Columns: []string{`say "hi"`}}
	r.AddRow(`a "quoted" cell`)
	csv := r.CSV()
	if !strings.Contains(csv, `"say ""hi"""`) || !strings.Contains(csv, `"a ""quoted"" cell"`) {
		t.Errorf("CSV quoting broken:\n%s", csv)
	}
}

func TestFmtNorm(t *testing.T) {
	if got := fmtNorm(1.234, 20); got != "1.23" {
		t.Errorf("fmtNorm = %q", got)
	}
	if got := fmtNorm(25, 20); got != "N/A" {
		t.Errorf("fmtNorm cutoff = %q", got)
	}
	if got := fmtNorm(0, 20); got != "err" {
		t.Errorf("fmtNorm zero = %q", got)
	}
}

func TestRosterNamesMatchPaper(t *testing.T) {
	algos := Roster(Config{})
	want := []string{
		"HC", "Genetic", "SA (Default)", "SA (Incremental)",
		"HQA", "DA (Default)", "DA (Parallel)", "DA (Incremental)",
	}
	if len(algos) != len(want) {
		t.Fatalf("roster size = %d, want %d", len(algos), len(want))
	}
	for i, a := range algos {
		if a.Name != want[i] {
			t.Errorf("roster[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}

func TestRunInstanceNormalises(t *testing.T) {
	p := mqo.PaperExample()
	algos := []Algorithm{
		{Name: "best", Run: func(context.Context, *mqo.Problem, int64) (Score, error) { return Score{Cost: 25}, nil }},
		{Name: "worst", Run: func(context.Context, *mqo.Problem, int64) (Score, error) { return Score{Cost: 50}, nil }},
	}
	ms := RunInstance(context.Background(), algos, p, 1)
	if ms[0].Normalised != 1 {
		t.Errorf("best normalised = %v, want 1", ms[0].Normalised)
	}
	if ms[1].Normalised != 2 {
		t.Errorf("worst normalised = %v, want 2", ms[1].Normalised)
	}
}

func TestRunInstanceToleratesErrors(t *testing.T) {
	p := mqo.PaperExample()
	algos := []Algorithm{
		{Name: "ok", Run: func(context.Context, *mqo.Problem, int64) (Score, error) { return Score{Cost: 30}, nil }},
		{Name: "broken", Run: func(context.Context, *mqo.Problem, int64) (Score, error) {
			return Score{}, context.DeadlineExceeded
		}},
	}
	ms := RunInstance(context.Background(), algos, p, 1)
	if ms[0].Err != nil || ms[0].Normalised != 1 {
		t.Errorf("ok algorithm mis-measured: %+v", ms[0])
	}
	if ms[1].Err == nil {
		t.Error("broken algorithm's error lost")
	}
}

func TestClassStats(t *testing.T) {
	cs := &classStats{}
	cs.add(Measurement{Normalised: 2})
	cs.add(Measurement{Normalised: 1})
	cs.add(Measurement{Normalised: 3})
	cs.add(Measurement{Err: context.Canceled})
	if cs.min != 1 || cs.max != 3 || cs.mean() != 2 || cs.errs != 1 {
		t.Errorf("stats = min %v max %v mean %v errs %d", cs.min, cs.max, cs.mean(), cs.errs)
	}
}

func TestFig1Shape(t *testing.T) {
	r := Fig1(SmokeScale())
	if r.ID != "fig1" || len(r.Rows) == 0 {
		t.Fatalf("empty fig1 report")
	}
	// The last row (30 queries × 10 PPQ) must exceed both devices.
	last := r.Rows[len(r.Rows)-1]
	if last[3] != "✗" || last[5] != "✗" {
		t.Errorf("30 queries should exceed both devices: %v", last)
	}
	// The first row (2 queries) must fit both.
	first := r.Rows[0]
	if first[3] != "✓" || first[5] != "✓" {
		t.Errorf("2 queries should fit both devices: %v", first)
	}
}

func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers are slow")
	}
	scale := SmokeScale()
	scale.QuerySet = []int{12}
	scale.PPQSet = []int{3}
	scale.CommunitySet = []int{2}
	scale.DensityHighs = []float64{0.5}
	scale.RuntimeDensities = []float64{0.3}
	scale.Instances = 1
	cfg := Config{DACapacity: 18, Runs: 2, SweepsPerVar: 30, HCIterations: 5000, GeneticGenerations: 5, GeneticPopulations: []int{10}}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"fig3", func() (*Report, error) { return Fig3(ctx, cfg, scale) }},
		{"fig4", func() (*Report, error) { return Fig4(ctx, cfg, scale) }},
		{"fig5", func() (*Report, error) { return Fig5(ctx, cfg, scale) }},
		{"fig6", func() (*Report, error) { return Fig6(ctx, cfg, scale) }},
		{"fig7", func() (*Report, error) { return Fig7(ctx, cfg, scale) }},
		{"ablation-dss", func() (*Report, error) { return AblationDSS(ctx, cfg, scale) }},
		{"ablation-postprocess", func() (*Report, error) { return AblationPostProcess(ctx, cfg, scale) }},
		{"ablation-lagrange", func() (*Report, error) { return AblationLagrange(ctx, cfg, scale) }},
		{"ablation-da", func() (*Report, error) { return AblationDigitalAnnealer(ctx, cfg, scale) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) == 0 {
				t.Fatal("empty report")
			}
			for _, row := range r.Rows {
				if len(row) != len(r.Columns) {
					t.Fatalf("row width %d != %d columns: %v", len(row), len(r.Columns), row)
				}
				for _, cell := range row {
					if cell == "err" {
						t.Errorf("measurement error in report: %v", row)
					}
				}
			}
		})
	}
}

// TestFigureRowsFollowClasses checks that each of Figs. 3–6 reports one
// row per corpus class of its figure, in class order and led by that
// class's cells: the corpus mqogen -corpus writes is the one the figures
// solve.
func TestFigureRowsFollowClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers are slow")
	}
	scale := SmokeScale()
	cfg := ConfigFor(scale)
	ctx := context.Background()
	for _, tc := range []struct {
		figure string
		run    func(context.Context, Config, Scale) (*Report, error)
	}{
		{"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5}, {"fig6", Fig6},
	} {
		t.Run(tc.figure, func(t *testing.T) {
			r, err := tc.run(ctx, cfg, scale)
			if err != nil {
				t.Fatal(err)
			}
			var classes []workload.Class
			for _, c := range scale.Classes() {
				if c.Figure == tc.figure {
					classes = append(classes, c)
				}
			}
			if len(r.Rows) != len(classes) {
				t.Fatalf("%d rows, want one per class: %d", len(r.Rows), len(classes))
			}
			for i, c := range classes {
				if lead := r.Rows[i][:len(c.Cells)]; !slices.Equal(lead, c.Cells) {
					t.Errorf("row %d leads with %v, want class %s's %v", i, lead, c.Name, c.Cells)
				}
			}
		})
	}
}

func TestWithoutAlgorithm(t *testing.T) {
	algos := Roster(Config{})
	got := withoutAlgorithm(algos, "HQA")
	if len(got) != len(algos)-1 {
		t.Fatalf("len = %d", len(got))
	}
	for _, a := range got {
		if a.Name == "HQA" {
			t.Fatal("HQA still present")
		}
	}
}

func TestScalesAreConsistent(t *testing.T) {
	for _, s := range []Scale{PaperScale(), ReducedScale(), SmokeScale()} {
		if len(s.QuerySet) == 0 || len(s.PPQSet) == 0 || s.Instances <= 0 || s.StandardPPQ <= 0 {
			t.Errorf("scale %q incomplete: %+v", s.Name, s)
		}
		cfg := ConfigFor(s).withDefaults()
		if cfg.DACapacity <= 0 || cfg.Runs <= 0 {
			t.Errorf("scale %q config incomplete: %+v", s.Name, cfg)
		}
		// Partitioning must actually trigger at the largest class.
		largest := s.QuerySet[len(s.QuerySet)-1] * s.StandardPPQ
		if largest <= cfg.DACapacity {
			t.Errorf("scale %q never partitions: %d plans vs capacity %d", s.Name, largest, cfg.DACapacity)
		}
	}
}
