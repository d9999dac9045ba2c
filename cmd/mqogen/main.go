// Command mqogen generates MQO problem instances to JSON: either synthetic
// parameter-sweep instances with controlled community structure and
// savings densities (Sec. 5.2.1 of the paper), or scenarios extrapolated
// from the TPC-H, LDBC BI and JOB query-optimisation benchmarks
// (Sec. 5.3.1). With -corpus it writes the evaluation corpus instead: every
// instance that Figs. 3–6 solve at the -scale that mqobench takes, so
// a file it writes is an instance some figure row reports on.
//
// Usage:
//
//	mqogen -queries 250 -ppq 30 -communities 4 -density-high 1.0 > sweep.json
//	mqogen -benchmark tpch -queries 500 -ppq 30 > tpch500.json
//	mqogen -corpus instances/ -scale reduced   # the 108 instances of mqobench -scale reduced
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"incranneal/internal/mqo"
	"incranneal/internal/workload"
)

func main() {
	var (
		queries     = flag.Int("queries", 250, "number of queries |Q|")
		ppq         = flag.Int("ppq", 30, "plans per query")
		communities = flag.Int("communities", 4, "number of query communities (sweep mode)")
		equal       = flag.Bool("equal-communities", false, "equal community sizes (sweep mode; default: varying)")
		densityLow  = flag.Float64("density-low", 0.05, "community density interval lower bound (sweep mode)")
		densityHigh = flag.Float64("density-high", 1.0, "community density interval upper bound (sweep mode)")
		cross       = flag.Float64("cross-density", 0.05, "cross-community savings density (sweep mode)")
		benchmark   = flag.String("benchmark", "", "derive from a QO benchmark instead: tpch, ldbc or job")
		seed        = flag.Int64("seed", 1, "generator seed")
		corpus      = flag.String("corpus", "", "write every instance Figs. 3–6 solve to this directory instead, as <fig>-<class>-i<k>.json plus MANIFEST.txt")
		scale       = flag.String("scale", "paper", "corpus scale, as mqobench -scale takes: smoke, reduced or paper")
	)
	flag.Parse()

	if *corpus != "" {
		c, err := workload.CorpusByName(*scale)
		if err == nil {
			err = writeCorpus(*corpus, c)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mqogen:", err)
			os.Exit(1)
		}
		return
	}

	p, err := generate(*benchmark, workload.SweepConfig{
		Queries: *queries, PPQ: *ppq,
		Communities: *communities, EqualCommunities: *equal,
		DensityLow: *densityLow, DensityHigh: *densityHigh, CrossDensity: *cross,
		Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqogen:", err)
		os.Exit(1)
	}
	if err := mqo.WriteProblem(os.Stdout, p); err != nil {
		fmt.Fprintln(os.Stderr, "mqogen: writing instance:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "generated %q: %d queries, %d plans, %d savings\n",
		p.Name, p.NumQueries(), p.NumPlans(), p.NumSavings())
}

func generate(benchmark string, cfg workload.SweepConfig) (*mqo.Problem, error) {
	if benchmark == "" {
		in, err := workload.GenerateSweep(cfg)
		if err != nil {
			return nil, err
		}
		return in.Problem, nil
	}
	cat, ok := workload.Catalogues()[benchmark]
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q (want tpch, ldbc or job)", benchmark)
	}
	in, err := workload.GenerateBench(workload.BenchConfig{
		Catalogue: cat, Queries: cfg.Queries, PPQ: cfg.PPQ, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return in.Problem, nil
}

// writeCorpus writes every instance of c's classes into dir, one JSON
// file each, plus a manifest naming each file's problem and size.
func writeCorpus(dir string, c workload.Corpus) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var manifest strings.Builder
	n := 0
	for _, cl := range c.Classes() {
		for k := 0; k < c.Instances; k++ {
			id := fmt.Sprintf("%s-%s-i%d", cl.Figure, cl.Name, k)
			p, err := cl.Generate(k)
			if err != nil {
				return fmt.Errorf("generating %s: %w", id, err)
			}
			f, err := os.Create(filepath.Join(dir, id+".json"))
			if err != nil {
				return err
			}
			if err := mqo.WriteProblem(f, p); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(&manifest, "%s\t%s\t%d queries\t%d plans\t%d savings\n",
				id, p.Name, p.NumQueries(), p.NumPlans(), p.NumSavings())
			n++
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.txt"), []byte(manifest.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d instances to %s\n", n, dir)
	return nil
}
