package workload

import (
	"fmt"

	"incranneal/internal/mqo"
)

// Corpus holds the dimensions of the evaluation corpus that Figs. 3–6 of
// the paper solve (Sec. 5.2–5.3) at one scale. PaperCorpus has the paper's
// dimensions; ReducedCorpus and SmokeCorpus shrink every axis so a run
// takes minutes or seconds while partitioning still triggers.
type Corpus struct {
	// QuerySet is the |Q| axis (paper: 250, 500, 750, 1000).
	QuerySet []int
	// PPQSet is the plans-per-query axis of Fig. 3 (paper: 20, 30, 40).
	PPQSet []int
	// StandardPPQ is the fixed PPQ of Figs. 4–7 (paper: 30).
	StandardPPQ int
	// Instances per problem class (paper: 3).
	Instances int
	// CommunitySet is the community-count axis of Fig. 4 (paper-style: 1,
	// 2, 4, 6).
	CommunitySet []int
	// DensityHighs are the upper bounds of the Fig. 5 density intervals,
	// all starting at 0.05 (paper: 0.25, 0.5, 0.75, 1.0).
	DensityHighs []float64
}

// PaperCorpus returns the paper's exact corpus dimensions.
func PaperCorpus() Corpus {
	return Corpus{
		QuerySet:     []int{250, 500, 750, 1000},
		PPQSet:       []int{20, 30, 40},
		StandardPPQ:  30,
		Instances:    3,
		CommunitySet: []int{1, 2, 4, 6},
		DensityHighs: []float64{0.25, 0.5, 0.75, 1.0},
	}
}

// ReducedCorpus shrinks the corpus ~8× per axis while preserving the
// ratios that drive the paper's effects (several partitions per problem,
// four communities, the same density intervals).
func ReducedCorpus() Corpus {
	return Corpus{
		QuerySet:     []int{64, 128, 256},
		PPQSet:       []int{4, 6, 8},
		StandardPPQ:  6,
		Instances:    2,
		CommunitySet: []int{1, 2, 4, 6},
		DensityHighs: []float64{0.25, 0.5, 0.75, 1.0},
	}
}

// SmokeCorpus is the minimal corpus used by unit tests and CI.
func SmokeCorpus() Corpus {
	return Corpus{
		QuerySet:     []int{16, 32},
		PPQSet:       []int{3, 4},
		StandardPPQ:  3,
		Instances:    1,
		CommunitySet: []int{1, 2, 4},
		DensityHighs: []float64{0.5, 1.0},
	}
}

// CorpusByName returns the corpus of a named scale: smoke, reduced or
// paper.
func CorpusByName(name string) (Corpus, error) {
	switch name {
	case "smoke":
		return SmokeCorpus(), nil
	case "reduced":
		return ReducedCorpus(), nil
	case "paper":
		return PaperCorpus(), nil
	default:
		return Corpus{}, fmt.Errorf("unknown scale %q (want smoke, reduced or paper)", name)
	}
}

// Class is one problem class of the corpus: one data row of its figure,
// averaged over the corpus's Instances.
type Class struct {
	Figure   string   // fig3, fig4, fig5 or fig6
	Name     string   // identifies the class within its figure; file-safe
	Cells    []string // the row's leading cells, before the algorithm columns
	Queries  int      // |Q| of every instance
	Seed     int64    // the run seed the figure solves the instances with
	Generate func(inst int) (*mqo.Problem, error)
}

// Classes enumerates the corpus, one class per figure row in row order:
//
//   - the scalability grid (PPQ × queries, 4 varying communities,
//     densities [0.05, 1]) — Fig. 3;
//   - the community grid ({varying, equal} sizes × communities × queries
//     at the standard PPQ) — Fig. 4;
//   - the density grid (intervals [0.05, high] × queries at the standard
//     PPQ) — Fig. 5;
//   - the benchmark scenarios (TPC-H, LDBC, JOB × queries) — Fig. 6.
//
// At the paper's dimensions that is 12 + 32 + 16 + 12 = 72 classes of 3
// instances each.
func (c Corpus) Classes() []Class {
	var classes []Class
	// sweep adds a class of cfg whose instance seeds are
	// ClassSeed(figure, |Q|, b, inst) and whose run seed is
	// ClassSeed(figure+"run", |Q|, runB, 0).
	sweep := func(figure, name string, cells []string, cfg SweepConfig, b, runB int) {
		classes = append(classes, Class{
			Figure: figure, Name: name, Cells: cells, Queries: cfg.Queries,
			Seed: ClassSeed(figure+"run", cfg.Queries, runB, 0),
			Generate: func(inst int) (*mqo.Problem, error) {
				cfg := cfg
				cfg.Seed = ClassSeed(figure, cfg.Queries, b, inst)
				in, err := GenerateSweep(cfg)
				if err != nil {
					return nil, err
				}
				return in.Problem, nil
			},
		})
	}
	for _, ppq := range c.PPQSet {
		for _, q := range c.QuerySet {
			sweep("fig3", fmt.Sprintf("q%d-ppq%d", q, ppq),
				[]string{fmt.Sprintf("%d", q), fmt.Sprintf("%d", ppq)},
				SweepConfig{Queries: q, PPQ: ppq, Communities: 4, DensityLow: 0.05, DensityHigh: 1.0},
				ppq, ppq)
		}
	}
	for e, sizes := range []string{"varying", "equal"} {
		for _, comm := range c.CommunitySet {
			for _, q := range c.QuerySet {
				sweep("fig4", fmt.Sprintf("%s-c%d-q%d", sizes, comm, q),
					[]string{sizes, fmt.Sprintf("%d", comm), fmt.Sprintf("%d", q)},
					SweepConfig{
						Queries: q, PPQ: c.StandardPPQ, Communities: comm, EqualCommunities: e == 1,
						DensityLow: 0.05, DensityHigh: 1.0,
					},
					comm*2+e, comm)
			}
		}
	}
	for _, high := range c.DensityHighs {
		for _, q := range c.QuerySet {
			sweep("fig5", fmt.Sprintf("d%.2f-q%d", high, q),
				[]string{fmt.Sprintf("[0.05,%.2f]", high), fmt.Sprintf("%d", q)},
				SweepConfig{Queries: q, PPQ: c.StandardPPQ, Communities: 4, DensityLow: 0.05, DensityHigh: high},
				int(high*100), int(high*100))
		}
	}
	for _, bm := range []string{"tpch", "ldbc", "job"} {
		cat := Catalogues()[bm]
		for _, q := range c.QuerySet {
			classes = append(classes, Class{
				Figure: "fig6", Name: fmt.Sprintf("%s-q%d", bm, q),
				Cells:   []string{bm, fmt.Sprintf("%d", q)},
				Queries: q, Seed: ClassSeed("fig6run"+bm, q, 0, 0),
				Generate: func(inst int) (*mqo.Problem, error) {
					in, err := GenerateBench(BenchConfig{
						Catalogue: cat, Queries: q, PPQ: c.StandardPPQ,
						Seed: ClassSeed("fig6"+bm, q, 0, inst),
					})
					if err != nil {
						return nil, err
					}
					return in.Problem, nil
				},
			})
		}
	}
	return classes
}

// ClassSeed derives a stable seed for a problem class from its label and
// dimensions.
func ClassSeed(label string, a, b, inst int) int64 {
	h := int64(1469598103934665603)
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	h ^= int64(a)*1000003 + int64(b)*10007 + int64(inst)*97
	if h < 0 {
		h = -h
	}
	return h
}
