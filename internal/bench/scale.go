package bench

import "incranneal/internal/workload"

// Scale selects the problem dimensions of an experiment run. PaperScale
// reproduces the paper's exact dimensions (hours of compute on the software
// simulators); ReducedScale shrinks every dimension proportionally so the
// whole suite finishes in minutes while partitioning, DSS and all device
// code paths stay exercised; SmokeScale is for tests.
//
// The embedded Corpus holds the Figs. 3–6 axes those figures solve, and
// the other figures and studies draw their dimensions from it too.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	workload.Corpus
	// RuntimeDensities is the density axis of Fig. 7 (paper: up to 0.8).
	RuntimeDensities []float64
	// MaxQueriesHQA bounds HQA experiments (the paper stops at 500
	// queries for budget reasons; the simulator inherits the limit so the
	// reports match).
	MaxQueriesHQA int
	// Fig1MaxQueries is the query axis bound of the qubit-requirement
	// figure (paper: ~40 at 10 PPQ).
	Fig1MaxQueries int
	// ChaosRequests is the request count of the serve-layer chaos soak
	// (`-fig chaos`): how many seeded solves are pushed through the
	// fault-injected serving stack while its crash-safety invariants are
	// checked.
	ChaosRequests int
}

// PaperScale returns the paper's exact experiment dimensions.
func PaperScale() Scale {
	return Scale{
		Name:             "paper",
		Corpus:           workload.PaperCorpus(),
		RuntimeDensities: []float64{0.2, 0.5, 0.8},
		MaxQueriesHQA:    500,
		Fig1MaxQueries:   40,
		ChaosRequests:    400,
	}
}

// ReducedScale runs the reduced corpus, ~8× smaller per axis.
func ReducedScale() Scale {
	return Scale{
		Name:             "reduced",
		Corpus:           workload.ReducedCorpus(),
		RuntimeDensities: []float64{0.2, 0.5, 0.8},
		MaxQueriesHQA:    128,
		Fig1MaxQueries:   40,
		ChaosRequests:    200,
	}
}

// SmokeScale is the minimal scale used by unit tests and the default
// `go test -bench` run.
func SmokeScale() Scale {
	return Scale{
		Name:             "smoke",
		Corpus:           workload.SmokeCorpus(),
		RuntimeDensities: []float64{0.2, 0.8},
		MaxQueriesHQA:    32,
		Fig1MaxQueries:   30,
		ChaosRequests:    24,
	}
}

// ConfigFor pairs a scale with a matching budget configuration: the device
// capacity shrinks with the instance sizes so partitioning stays active.
func ConfigFor(s Scale) Config {
	switch s.Name {
	case "paper":
		return Paper()
	case "smoke":
		return Config{DACapacity: 24, Runs: 2, SweepsPerVar: 40, HCIterations: 20000, GeneticGenerations: 15, GeneticPopulations: []int{20}}
	default:
		return Config{DACapacity: 512, Runs: 8, SweepsPerVar: 100, HCIterations: 100000, GeneticGenerations: 40, GeneticPopulations: []int{50}}
	}
}
