package encoding

import (
	"math"

	"incranneal/internal/mqo"
	"incranneal/internal/qubo"
)

// PreparedMQO is the structural skeleton of a problem's Trummer–Koch QUBO,
// built once per partial problem and re-materialised cheaply as dynamic
// search steering (Algorithm 3) mutates plan costs between partial solves.
//
// The key observation is that DSS only ever changes *linear* plan-cost
// coefficients and — through Penalty — the one-hot penalty A; the
// quadratic structure (one-hot cliques and savings terms) is invariant
// across the whole incremental phase. The skeleton therefore stores every
// quadratic coefficient as the pair (const, coeffOfA), so the model for any
// penalty A and any adjusted cost vector materialises in one
// O(variables + terms) pass: no map, no sort, and after the first
// materialisation no allocation (the qubo.Model buffer is rewritten in
// place via Model.Reweight).
//
// Materialised coefficients are bit-identical to adding the same terms one
// by one through qubo.Builder, the reference encoder of the tests — the
// float operations are performed in the same order — which keeps the whole
// pipeline's results independent of whether encodings are rebuilt or
// reweighted (pinned by TestPrepareMQOMatchesFresh and
// FuzzPrepareMQOReweight).
type PreparedMQO struct {
	// Problem is the encoded problem; its live (possibly DSS-adjusted)
	// costs are read at every materialisation.
	Problem *mqo.Problem
	// incident[pl] is the accumulated saving value incident to plan pl,
	// summed in savings order. Savings never change, so this is prepared
	// once.
	incident []float64
	// Skeleton term structure in CSR order (I < J, lexicographic); the
	// coefficient of term t is termConst[t] + termCoeffA[t]·A. One-hot
	// clique terms are (0, 2); savings terms are (−value, 0). Zero-valued
	// savings are omitted, matching Builder.Build's zero-term drop.
	terms     []qubo.Term
	termConst []float64
	termCoefA []float64
	// Materialisation buffers, allocated on first Encoding call and
	// rewritten in place afterwards.
	enc    *MQOEncoding
	linear []float64
	coeffs []float64
	stats  EncodingStats
}

// EncodingStats counts how a prepared skeleton was used: Materialised is
// the number of full model builds (first Encoding call), Reweighted the
// number of in-place coefficient rewrites after DSS dirtied the costs. The
// pipeline's cache-effectiveness metrics aggregate these across skeletons.
type EncodingStats struct {
	Materialised, Reweighted int
}

// Stats returns the skeleton's materialisation counters.
func (pp *PreparedMQO) Stats() EncodingStats { return pp.stats }

// PrepareMQO builds the immutable encoding skeleton of p. The structure
// depends only on the query/plan layout and the savings pairs, both of which
// DSS never touches, so one skeleton serves every re-encoding of a partial
// problem across the incremental phase. The CSR emission relies on sorted,
// distinct savings between plans of different queries, which NewProblem
// guarantees for every problem.
func PrepareMQO(p *mqo.Problem) (*PreparedMQO, error) {
	if p.NumQueries() == 0 {
		return nil, mqo.ErrEmptyProblem
	}
	n := p.NumPlans()
	pp := &PreparedMQO{Problem: p, incident: make([]float64, n)}
	savings := p.Savings()
	for _, s := range savings {
		pp.incident[s.P1] += s.Value
		pp.incident[s.P2] += s.Value
	}
	nTerms := 0
	for q := 0; q < p.NumQueries(); q++ {
		k := len(p.Plans(q))
		nTerms += k * (k - 1) / 2
	}
	for _, s := range savings {
		if s.Value != 0 {
			nTerms++
		}
	}
	pp.terms = make([]qubo.Term, 0, nTerms)
	pp.termConst = make([]float64, 0, nTerms)
	pp.termCoefA = make([]float64, 0, nTerms)
	// Emit directly in CSR order. Each query's plans are contiguous, so row
	// i first holds the one-hot clique partners (i, i+1..qEnd) and then the
	// savings partners, whose indices all belong to other queries' blocks
	// and therefore exceed qEnd; the globally sorted savings list yields
	// them in ascending order per row.
	si := 0
	for i := 0; i < n; i++ {
		plans := p.Plans(p.QueryOf(i))
		qEnd := plans[len(plans)-1] + 1
		for j := i + 1; j < qEnd; j++ {
			pp.terms = append(pp.terms, qubo.Term{I: i, J: j})
			pp.termConst = append(pp.termConst, 0)
			pp.termCoefA = append(pp.termCoefA, 2)
		}
		for ; si < len(savings) && savings[si].P1 == i; si++ {
			if savings[si].Value == 0 {
				continue
			}
			pp.terms = append(pp.terms, qubo.Term{I: i, J: savings[si].P2})
			pp.termConst = append(pp.termConst, -savings[si].Value)
			pp.termCoefA = append(pp.termCoefA, 0)
		}
	}
	return pp, nil
}

// Rebind points the skeleton at np — a problem with the same shape as the
// one it was prepared for (query/plan layout, savings pairs, and the same
// zero/non-zero saving pattern, since zero-valued savings emit no term) but
// possibly different weights — recomputing the value-dependent arrays in
// PrepareMQO's exact accumulation order. The materialisation buffers
// survive, so the next Encoding call is a single in-place reweight whose
// coefficients are bit-identical to a fresh PrepareMQO(np) followed by
// Encoding (pinned by TestRebindMatchesFresh). This is what lets the
// cross-solve cache (internal/solvecache) share skeletons between solves of
// recurring problem structures.
//
// Rebind returns false, leaving the receiver untouched, when np's shape
// differs — the caller prepares a fresh skeleton instead, so a cache-key
// collision can never corrupt an encoding.
func (pp *PreparedMQO) Rebind(np *mqo.Problem) bool {
	op := pp.Problem
	if np.NumQueries() != op.NumQueries() || np.NumPlans() != op.NumPlans() {
		return false
	}
	for q := 0; q < op.NumQueries(); q++ {
		if len(np.Plans(q)) != len(op.Plans(q)) {
			return false
		}
	}
	os, ns := op.Savings(), np.Savings()
	if len(ns) != len(os) {
		return false
	}
	for i, s := range os {
		if ns[i].P1 != s.P1 || ns[i].P2 != s.P2 || (ns[i].Value == 0) != (s.Value == 0) {
			return false
		}
	}
	// Shape verified: rebuild the incident sums and savings-term constants
	// from np's values, walking the same emission order as PrepareMQO so
	// term index ti tracks exactly the terms the savings produced.
	for i := range pp.incident {
		pp.incident[i] = 0
	}
	for _, s := range ns {
		pp.incident[s.P1] += s.Value
		pp.incident[s.P2] += s.Value
	}
	si, ti := 0, 0
	for i := 0; i < np.NumPlans(); i++ {
		plans := np.Plans(np.QueryOf(i))
		ti += plans[len(plans)-1] + 1 - (i + 1) // clique terms of row i: const 0, untouched
		for ; si < len(ns) && ns[si].P1 == i; si++ {
			if ns[si].Value == 0 {
				continue
			}
			pp.termConst[ti] = -ns[si].Value
			ti++
		}
	}
	pp.Problem = np
	if pp.enc != nil {
		pp.enc.Problem = np
	}
	return true
}

// Penalty derives from the problem's current costs a one-hot penalty
// weight A that guarantees every minimum of the encoded model selects
// exactly one plan per query.
//
// Violations and their maximum energy benefit:
//   - selecting an extra plan p for an already-covered query raises the
//     constraint energy by at least A while gaining at most
//     Σ(savings incident to p) − c_p, so A must exceed
//     max_p (incident(p) − c_p);
//   - deselecting a query's only plan p raises the constraint energy by A
//     while gaining at most c_p (its savings only shrink the gain), so A
//     must exceed max_p c_p.
//
// Plan costs may be negative after DSS adjustments (Algorithm 3); both
// bounds account for that by using the signed cost.
func (pp *PreparedMQO) Penalty() float64 {
	var bound float64
	for pl := 0; pl < pp.Problem.NumPlans(); pl++ {
		c := pp.Problem.Cost(pl)
		bound = math.Max(bound, pp.incident[pl]-c)
		bound = math.Max(bound, c)
	}
	return bound + 1
}

// NumTerms returns the number of quadratic terms in the skeleton.
func (pp *PreparedMQO) NumTerms() int { return len(pp.terms) }

// Encoding materialises the QUBO for the problem's current plan costs and
// the penalty they imply. The first call allocates the model; every later
// call rewrites the same buffers in place and returns the same *MQOEncoding,
// so callers must not hand the previous materialisation to a still-running
// solver. Coefficients equal those of a fresh PrepareMQO of the same
// problem state exactly.
func (pp *PreparedMQO) Encoding() *MQOEncoding {
	a := pp.Penalty()
	if pp.enc == nil {
		pp.stats.Materialised++
		pp.linear = make([]float64, pp.Problem.NumPlans())
		pp.coeffs = make([]float64, len(pp.terms))
		pp.fill(a)
		terms := make([]qubo.Term, len(pp.terms))
		copy(terms, pp.terms)
		for t := range terms {
			terms[t].Coeff = pp.coeffs[t]
		}
		linear := make([]float64, len(pp.linear))
		copy(linear, pp.linear)
		pp.enc = &MQOEncoding{
			Problem: pp.Problem,
			Model:   qubo.NewModelFromSortedTerms(linear, terms),
			Penalty: a,
		}
		return pp.enc
	}
	pp.stats.Reweighted++
	pp.fill(a)
	pp.enc.Model.Reweight(pp.linear, pp.coeffs)
	pp.enc.Penalty = a
	return pp.enc
}

// fill computes all coefficients for penalty a into the scratch buffers.
// Linear terms replicate the Builder reference's accumulation (−A from the
// one-hot expansion, then the plan cost) and quadratic terms evaluate
// const + coeffOfA·A; both reproduce its floats exactly.
func (pp *PreparedMQO) fill(a float64) {
	for pl := range pp.linear {
		pp.linear[pl] = -a + pp.Problem.Cost(pl)
	}
	for t := range pp.coeffs {
		pp.coeffs[t] = pp.termConst[t] + pp.termCoefA[t]*a
	}
}
