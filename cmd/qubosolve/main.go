// Command qubosolve minimises an arbitrary QUBO in qbsolv ".qubo" format
// with any of the repository's quantum(-inspired) device simulators. It
// exposes the substrate beneath the MQO pipeline as a general-purpose
// tool, in the spirit of the paper's closing claim that the framework
// "lays the ground for other database use-cases on quantum-inspired
// hardware".
//
// Usage:
//
//	qubosolve -in problem.qubo -device da -runs 16
//	qubosolve -in problem.qubo -device da-pt        # parallel tempering
//	qubosolve -in problem.qubo -device hqa -print-assignment
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"incranneal/internal/da"
	"incranneal/internal/devices"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

func main() {
	var (
		in       = flag.String("in", "-", ".qubo file (\"-\" for stdin)")
		device   = flag.String("device", "da", "device: "+strings.Join(devices.Names, ", ")+" or da-large (the DA's vendor decomposition)")
		runs     = flag.Int("runs", 16, "independent runs")
		sweeps   = flag.Int("sweeps", 0, "iteration budget (0 = device default)")
		seed     = flag.Int64("seed", 1, "random seed")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget (0 = unbounded)")
		printSol = flag.Bool("print-assignment", false, "print the best variable assignment")
	)
	flag.Parse()

	m, err := readModel(*in)
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	req := solver.Request{Model: m, Runs: *runs, Sweeps: *sweeps, Seed: *seed}
	start := time.Now()
	res, err := solve(ctx, *device, req)
	if err != nil {
		fail(err)
	}
	best, ok := res.Best()
	if !ok {
		fail(fmt.Errorf("device returned no samples"))
	}
	fmt.Printf("device:    %s\n", *device)
	fmt.Printf("variables: %d (%d quadratic terms)\n", m.NumVariables(), m.NumTerms())
	fmt.Printf("energy:    %g\n", best.Energy)
	fmt.Printf("samples:   %d\n", len(res.Samples))
	fmt.Printf("sweeps:    %d\n", res.Sweeps)
	fmt.Printf("elapsed:   %v\n", time.Since(start).Round(time.Millisecond))
	if *printSol {
		for i, x := range best.Assignment {
			if x != 0 {
				fmt.Printf("x%d = 1\n", i)
			}
		}
	}
}

// solve runs req on the named catalogue device, or on the DA's vendor
// decomposition for da-large.
func solve(ctx context.Context, device string, req solver.Request) (*solver.Result, error) {
	if device == "da-large" {
		return (&da.Solver{}).SolveLarge(ctx, req)
	}
	dev, err := devices.New(device, 0)
	if err != nil {
		return nil, err
	}
	return dev.Solve(ctx, req)
}

func readModel(path string) (*qubo.Model, error) {
	if path == "-" {
		return qubo.ReadModel(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qubo.ReadModel(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qubosolve:", err)
	os.Exit(1)
}
