// Package encoding transforms the repository's optimisation problems into
// the QUBO formalism required by quantum(-inspired) annealers (Sec. 2.1),
// and decodes device samples back into problem solutions.
//
// Two encodings are provided: the Trummer–Koch MQO encoding (VLDB'16) used
// by the optimisation phase (Algorithm 2, line 8), and the weighted
// graph-bisection encoding of Sec. 4.1.2 used by the partitioning phase.
package encoding

import (
	"fmt"

	"incranneal/internal/mqo"
	"incranneal/internal/qubo"
)

// MQOEncoding couples an MQO problem with its QUBO model and the penalty
// weight used, allowing samples to be decoded and the encoding to be
// audited by tests.
type MQOEncoding struct {
	Problem *mqo.Problem
	Model   *qubo.Model
	// Penalty is the one-hot constraint weight A; it strictly exceeds any
	// energy benefit obtainable by violating the one-plan-per-query
	// constraint, so all minima of the model are valid solutions.
	Penalty float64
}

// EncodeMQO builds the Trummer–Koch QUBO for p: one binary variable per
// execution plan (x_p = 1 iff plan p is selected) and energy
//
//	H = A·Σ_q (1 − Σ_{p∈P_q} x_p)² + Σ_p c_p·x_p − Σ_{(p_i,p_j)∈S} s_ij·x_i·x_j.
//
// The first term enforces exactly one plan per query, the second charges
// execution costs and the third rewards realised savings, so minimum-energy
// configurations are optimal MQO solutions. The penalty weight A is derived
// from the instance (see PreparedMQO.Penalty) rather than hand-tuned.
//
// EncodeMQO is PrepareMQO followed by one Encoding; callers that re-encode
// a problem as DSS adjusts its costs keep the PreparedMQO instead.
func EncodeMQO(p *mqo.Problem) (*MQOEncoding, error) {
	pp, err := PrepareMQO(p)
	if err != nil {
		return nil, err
	}
	return pp.Encoding(), nil
}

// Decode converts a device sample into a valid MQO solution, applying the
// validity post-processing of Sec. 4.2 when the sample violates the
// one-plan-per-query constraint (possible on noisy devices).
func (e *MQOEncoding) Decode(assignment []int8) (*mqo.Solution, error) {
	if len(assignment) != e.Problem.NumPlans() {
		return nil, fmt.Errorf("encoding: sample has %d variables, problem has %d plans", len(assignment), e.Problem.NumPlans())
	}
	selected := make([]bool, len(assignment))
	for i, x := range assignment {
		selected[i] = x != 0
	}
	return mqo.Repair(e.Problem, selected), nil
}

// IsValidSample reports whether a raw sample already selects exactly one
// plan per query, i.e. whether Decode's repair step is a no-op.
func (e *MQOEncoding) IsValidSample(assignment []int8) bool {
	if len(assignment) != e.Problem.NumPlans() {
		return false
	}
	for q := 0; q < e.Problem.NumQueries(); q++ {
		count := 0
		for _, pl := range e.Problem.Plans(q) {
			if assignment[pl] != 0 {
				count++
			}
		}
		if count != 1 {
			return false
		}
	}
	return true
}
