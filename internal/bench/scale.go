package bench

// Scale selects the problem dimensions of an experiment run. PaperScale
// reproduces the paper's exact dimensions (hours of compute on the software
// simulators); ReducedScale shrinks every dimension proportionally so the
// whole suite finishes in minutes while partitioning, DSS and all device
// code paths stay exercised; SmokeScale is for tests.
type Scale struct {
	// Name labels the scale in reports.
	Name string
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
		QuerySet:         []int{250, 500, 750, 1000},
		PPQSet:           []int{20, 30, 40},
		StandardPPQ:      30,
		Instances:        3,
		CommunitySet:     []int{1, 2, 4, 6},
		DensityHighs:     []float64{0.25, 0.5, 0.75, 1.0},
		RuntimeDensities: []float64{0.2, 0.5, 0.8},
		MaxQueriesHQA:    500,
		Fig1MaxQueries:   40,
		ChaosRequests:    400,
	}
}

// ReducedScale shrinks the corpus ~8× per axis while preserving the ratios
// that drive the paper's effects (several partitions per problem, four
// communities, the same density intervals).
func ReducedScale() Scale {
	return Scale{
		Name:             "reduced",
		QuerySet:         []int{64, 128, 256},
		PPQSet:           []int{4, 6, 8},
		StandardPPQ:      6,
		Instances:        2,
		CommunitySet:     []int{1, 2, 4, 6},
		DensityHighs:     []float64{0.25, 0.5, 0.75, 1.0},
		RuntimeDensities: []float64{0.2, 0.5, 0.8},
		MaxQueriesHQA:    128,
		Fig1MaxQueries:   40,
		ChaosRequests:    200,
	}
}

// SmokeScale is the minimal corpus used by unit tests and the default
// `go test -bench` run.
func SmokeScale() Scale {
	return Scale{
		Name:             "smoke",
		QuerySet:         []int{16, 32},
		PPQSet:           []int{3, 4},
		StandardPPQ:      3,
		Instances:        1,
		CommunitySet:     []int{1, 2, 4},
		DensityHighs:     []float64{0.5, 1.0},
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
