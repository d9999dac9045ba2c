// Command benchmark measures the MQO solver end to end and layer by layer.
//
// It drives one of four seeded workloads through the public entry points
// of the layers — core.SolveIncremental, solvecache.New, serve.New with
// Server.Handler, and the solver.Solver interface — checks every answer,
// and prints each metric by name with its unit. Build and run it with
// run.sh, which compiles it from the checkout's sources:
//
//	bash benchmark/run.sh --workload whole-anneal --seed 1 --seconds 20 --trace 0
//
// The second-to-last line of standard output is a summary object (host,
// command line, seed, metrics); the last line is
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With --trace 1 the run measures an untraced and then a traced pass over
// the same ops, reports the per-layer metrics, and writes the traced
// pass's spans as JSONL to --trace-out. --compare base.out new.out
// compares the summary lines of two saved outputs against the bounds in
// BENCHMARK.json and exits 1 on a regression.
//
// All load comes from this one process; the serve workload calls the
// server's handler in process, without sockets.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// value is a metric as the JSON lines carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the self-describing record of one run; --compare reads it
// back.
type summary struct {
	Benchmark  string  `json:"benchmark"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	// CalibrationMs is the host's median calibration round during the
	// run; times are scaled by refCalibrationMs over it.
	CalibrationMs float64          `json:"calibration_ms"`
	Cmdline       []string         `json:"cmdline"`
	Claim         *string          `json:"claim"`
	Metrics       map[string]value `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 20, "seconds the run measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from an untraced and a traced pass")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.jsonl)")
	base := fs.String("compare", "", "compare mode: --compare base.out new.out, judged by ./BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: benchmark --compare base.out new.out")
			return 2
		}
		ok, err := compareFiles(*base, fs.Arg(0), "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, ok := lookup(*name)
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "usage: benchmark --workload {%s} [--seed n] [--seconds s] [--trace 0|1]\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if *traceOut == "" {
		*traceOut = fmt.Sprintf(".bench_build/trace-%s.jsonl", w.name)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	rep, err := measure(context.Background(), w, fullSizes, *seed, *seconds, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for i, err := range rep.errs {
		if i == 5 {
			fmt.Fprintf(stderr, "benchmark: ... %d more failures\n", len(rep.errs)-i)
			break
		}
		fmt.Fprintln(stderr, "benchmark: failed", err)
	}

	metrics := make(map[string]value, len(rep.metrics))
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d attempted=%d failed=%d\n",
		w.name, *seed, *seconds, *trace, rep.attempted, rep.failed)
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "%-32s %14.4f %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(summary{ //nolint:errcheck // a failed write to stdout has nowhere to be reported
		Benchmark: "incranneal", Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Attempted: rep.attempted, Failed: rep.failed,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CalibrationMs: rep.calibrationMs, Cmdline: os.Args, Metrics: metrics,
	})
	enc.Encode(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}) //nolint:errcheck // as above
	if rep.failed > 0 {
		return 1
	}
	return 0
}
