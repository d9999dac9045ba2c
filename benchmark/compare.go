package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// bound is one metric's entry in BENCHMARK.json. Per-layer metrics have
// no bound.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readBounds(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readSummaries returns the summary lines of a saved benchmark output;
// other lines are skipped, so several runs' outputs can be concatenated.
func readSummaries(path string) ([]summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []summary
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"benchmark":`) {
			continue
		}
		var s summary
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark summary lines", path)
	}
	return out, nil
}

// compareFiles compares, per workload and metric, the median over the runs
// in newPath with the median over the runs in basePath. An end-to-end
// metric regresses when it is worse by more than its bound; cost_ratio
// must also be identical between runs of equal seed, since the solver is
// deterministic. It reports whether nothing regressed.
func compareFiles(basePath, newPath, boundsPath string, w io.Writer) (bool, error) {
	bf, err := readBounds(boundsPath)
	if err != nil {
		return false, err
	}
	base, err := readSummaries(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readSummaries(newPath)
	if err != nil {
		return false, err
	}
	type group struct {
		workload string
		trace    int
	}
	var order []group
	runs := map[group][2][]summary{}
	for side, ss := range [][]summary{base, cur} {
		for _, s := range ss {
			g := group{s.Workload, s.Trace}
			r, seen := runs[g]
			if !seen {
				order = append(order, g)
			}
			r[side] = append(r[side], s)
			runs[g] = r
		}
	}
	ok := true
	for _, g := range order {
		r := runs[g]
		if len(r[0]) == 0 || len(r[1]) == 0 {
			fmt.Fprintf(w, "%s trace=%d: only in one file, skipped\n", g.workload, g.trace)
			continue
		}
		fmt.Fprintf(w, "%s trace=%d: %d base runs, %d new runs\n", g.workload, g.trace, len(r[0]), len(r[1]))
		for _, s := range r[1] {
			if s.Failed > 0 {
				ok = false
				fmt.Fprintf(w, "  seed %d: %d of %d ops FAILED\n", s.Seed, s.Failed, s.Attempted)
			}
		}
		metrics := bf.EndToEnd
		if g.trace == 1 {
			metrics = bf.PerLayer
		}
		fmt.Fprintf(w, "  %-32s %14s %14s %9s  %s\n", "metric", "base", "new", "delta", "verdict")
		for _, b := range metrics {
			bv, nv := medianOf(r[0], b.Name), medianOf(r[1], b.Name)
			delta := div(nv-bv, bv)
			worse := delta
			if b.Better == "higher" {
				worse = -delta
			}
			verdict := "-"
			if g.trace == 0 {
				verdict = "ok"
				if worse > b.Bound {
					verdict, ok = fmt.Sprintf("REGRESSION (bound %.1f%%)", 100*b.Bound), false
				}
				if b.Name == "cost_ratio" && !sameCosts(r[0], r[1]) {
					verdict, ok = "MISMATCH at equal seed", false
				}
			}
			fmt.Fprintf(w, "  %-32s %14.4f %14.4f %+8.2f%%  %s\n", b.Name, bv, nv, 100*delta, verdict)
		}
	}
	return ok, nil
}

func medianOf(ss []summary, name string) float64 {
	v := make([]float64, 0, len(ss))
	for _, s := range ss {
		v = append(v, s.Metrics[name].Value)
	}
	return quantile(v, 0.5)
}

// sameCosts reports whether every pair of runs with equal seed agrees on
// cost_ratio exactly; it averages the first minOps ops, which every run
// completes whatever its length.
func sameCosts(base, cur []summary) bool {
	for _, b := range base {
		for _, c := range cur {
			if b.Seed == c.Seed && b.Metrics["cost_ratio"].Value != c.Metrics["cost_ratio"].Value {
				return false
			}
		}
	}
	return true
}
