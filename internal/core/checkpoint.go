package core

import (
	"fmt"
	"sort"

	"incranneal/internal/mqo"
)

// This file implements session checkpointing for the partitioned
// strategies. The wave executor's serial merge barrier makes every
// partial-problem merge a consistent restart point: the incumbent total
// solution is exactly the union of the merged partial solutions, and every
// DSS cost adjustment applied so far is a deterministic function of those
// merged selections and the partitioning. A Checkpoint therefore only needs
// the partitioning (query sets) and the per-sub final selections — resuming
// replays the cheap parts (extraction, merges, DSS passes) and skips the
// expensive one (device anneals) for every finished sub-problem.
//
// Bit-identity of resume: partition.Refit keeps the checkpointed query
// sets, which already fit the capacity, in their order, and mqo.Extract is
// deterministic, so re-extracting them reproduces the original
// sub-problems (including their Discarded lists and the derived DSS DAG)
// exactly. A replayed merge re-installs the checkpointed selections; the
// DSS passes then see identical `selected` sets and identical
// pending-savings lists, so every plan-cost adjustment flowing into a *not
// yet finished* sub-problem — the only ones that still solve on the
// device — is float-identical to the uninterrupted run. Sweeps and
// Degradations are restored from the checkpoint rather than recomputed.
// Pinned by TestCheckpointResumeBitIdentity.

// Checkpoint is a consistent restart point of a partitioned solve, as
// delivered to Options.CheckpointFunc after partial-problem merges. It is
// self-contained and JSON-serialisable: resuming needs only the original
// problem plus the checkpoint, via Options.Resume. The serving layer
// checkpoints only an attempt its chaos schedule kills, keeps the last
// checkpoint in memory and resumes the requeued request from it.
//
// Checkpoints exist only for solves that actually partitioned; problems
// fitting the device solve in one piece and restart from scratch.
type Checkpoint struct {
	// Strategy names the steering mode that produced the checkpoint:
	// "incremental" with DSS, "parallel" without (Options.DisableDSS).
	// The two re-apply different savings, so resuming under the other
	// mode would match neither uninterrupted run and is rejected.
	Strategy string `json:"strategy"`
	// Seed is the solve's Options.Seed; resuming under a different seed
	// would not reproduce the interrupted run and is rejected.
	Seed int64 `json:"seed"`
	// Queries and Plans fingerprint the problem shape so a checkpoint is
	// never replayed against a different problem.
	Queries int `json:"queries"`
	Plans   int `json:"plans"`
	// QuerySets is the partitioning: parent query indices per partial
	// problem, in partial-problem order (each set sorted ascending).
	QuerySets [][]int `json:"querySets"`
	// Done lists the finished partial problems in merge order.
	Done []SubCheckpoint `json:"done"`
}

// SubCheckpoint records one finished partial problem.
type SubCheckpoint struct {
	// Sub is the partial-problem index into QuerySets.
	Sub int `json:"sub"`
	// Selected holds the chosen parent plan per local query, aligned with
	// the sub-problem's sorted query list.
	Selected []int `json:"selected"`
	// Sweeps is the annealing iterations the sub-problem's device solve
	// performed (restored into Outcome.Sweeps on resume).
	Sweeps int `json:"sweeps"`
	// Degraded carries the sub-problem's degradation record when its
	// device solve failed terminally and greedy repair completed it; the
	// resumed Outcome reports it unchanged.
	Degraded *Degradation `json:"degraded,omitempty"`
}

// Clone deep-copies the checkpoint, so holders are immune to the solve
// appending further Done entries.
func (c *Checkpoint) Clone() *Checkpoint {
	if c == nil {
		return nil
	}
	n := &Checkpoint{
		Strategy: c.Strategy, Seed: c.Seed,
		Queries: c.Queries, Plans: c.Plans,
		QuerySets: make([][]int, len(c.QuerySets)),
	}
	for i, qs := range c.QuerySets {
		n.QuerySets[i] = append([]int(nil), qs...)
	}
	if c.Done != nil {
		n.Done = make([]SubCheckpoint, len(c.Done))
		for i, d := range c.Done {
			nd := SubCheckpoint{Sub: d.Sub, Sweeps: d.Sweeps,
				Selected: append([]int(nil), d.Selected...)}
			if d.Degraded != nil {
				deg := *d.Degraded
				nd.Degraded = &deg
			}
			n.Done[i] = nd
		}
	}
	return n
}

// localSolution rebuilds the sub-problem's local solution from the
// checkpointed parent-plan selections.
func (sc *SubCheckpoint) localSolution(sub *mqo.SubProblem) (*mqo.Solution, error) {
	if len(sc.Selected) != len(sub.Queries) {
		return nil, fmt.Errorf("core: checkpoint sub %d has %d selections, sub-problem has %d queries",
			sc.Sub, len(sc.Selected), len(sub.Queries))
	}
	sol := mqo.NewSolution(sub.Local)
	for lq, gp := range sc.Selected {
		lp, ok := sub.LocalPlan(gp)
		if !ok {
			return nil, fmt.Errorf("core: checkpoint sub %d selects plan %d outside the sub-problem", sc.Sub, gp)
		}
		sol.Selected[lq] = lp
	}
	return sol, nil
}

// ckptRecorder assembles and delivers checkpoints from the serial merge
// path of a partitioned solve. It is only ever touched from a single
// goroutine (the wave executor's merge barrier), so it needs no locking.
type ckptRecorder struct {
	fn func(*Checkpoint)
	cp Checkpoint
}

// newCkptRecorder builds the recorder for a solve over subs, nil when the
// solve does not checkpoint. The query sets are deep-copied up front —
// the same snapshot discipline solvecache uses for its partitionings — so
// delivered checkpoints never alias pipeline state.
func newCkptRecorder(p *mqo.Problem, subs []*mqo.SubProblem, opt Options) *ckptRecorder {
	if opt.CheckpointFunc == nil {
		return nil
	}
	qs := make([][]int, len(subs))
	for i, sub := range subs {
		qs[i] = append([]int(nil), sub.Queries...)
	}
	return &ckptRecorder{
		fn: opt.CheckpointFunc,
		cp: Checkpoint{
			Strategy:  steeringMode(opt),
			Seed:      opt.Seed,
			Queries:   p.NumQueries(),
			Plans:     p.NumPlans(),
			QuerySets: qs,
		},
	}
}

// record appends the finished sub-problem and delivers a deep-copied
// checkpoint. global is the sub-problem's merged global solution.
func (r *ckptRecorder) record(idx int, sub *mqo.SubProblem, global *mqo.Solution, sweeps int, deg *Degradation) {
	if r == nil {
		return
	}
	sel := make([]int, len(sub.Queries))
	for lq, q := range sub.Queries {
		sel[lq] = global.Selected[q]
	}
	sc := SubCheckpoint{Sub: idx, Selected: sel, Sweeps: sweeps}
	if deg != nil {
		d := *deg
		sc.Degraded = &d
	}
	r.cp.Done = append(r.cp.Done, sc)
	r.fn(r.cp.Clone())
}

// steeringMode names the checkpoint strategy of a solve under opt: DSS
// decides which savings are re-applied, so it decides what a replay must
// reproduce.
func steeringMode(opt Options) string {
	if opt.DisableDSS {
		return StrategyParallel
	}
	return StrategyIncremental
}

// resumeState is the finished-sub lookup of a resumed solve. Nil (no
// resume) is a valid receiver everywhere.
type resumeState struct {
	done map[int]*SubCheckpoint
}

// newResumeState validates cp against p and the freshly extracted
// sub-problems and indexes its finished subs. A mismatched checkpoint is an
// error, not a silent fresh solve: callers handing a checkpoint expect the
// replay semantics, and the serving layer only ever resumes checkpoints it
// minted for the same problem.
func newResumeState(p *mqo.Problem, subs []*mqo.SubProblem, opt Options) (*resumeState, error) {
	cp := opt.Resume
	if cp == nil {
		return nil, nil
	}
	if cp.Queries != p.NumQueries() || cp.Plans != p.NumPlans() {
		return nil, fmt.Errorf("core: checkpoint is for a %dq/%dp problem, got %dq/%dp",
			cp.Queries, cp.Plans, p.NumQueries(), p.NumPlans())
	}
	if cp.Seed != opt.Seed {
		return nil, fmt.Errorf("core: checkpoint seed %d does not match solve seed %d", cp.Seed, opt.Seed)
	}
	if mode := steeringMode(opt); cp.Strategy != mode {
		return nil, fmt.Errorf("core: checkpoint from a %q solve cannot resume a %q solve", cp.Strategy, mode)
	}
	if len(cp.QuerySets) != len(subs) {
		return nil, fmt.Errorf("core: checkpoint has %d partial problems, partitioning produced %d",
			len(cp.QuerySets), len(subs))
	}
	for i, qs := range cp.QuerySets {
		sorted := append([]int(nil), qs...)
		sort.Ints(sorted)
		if len(sorted) != len(subs[i].Queries) {
			return nil, fmt.Errorf("core: checkpoint sub %d covers %d queries, partitioning has %d",
				i, len(sorted), len(subs[i].Queries))
		}
		for k, q := range sorted {
			if q != subs[i].Queries[k] {
				return nil, fmt.Errorf("core: checkpoint sub %d query set diverges from partitioning", i)
			}
		}
	}
	rs := &resumeState{done: make(map[int]*SubCheckpoint, len(cp.Done))}
	for i := range cp.Done {
		sc := &cp.Done[i]
		if sc.Sub < 0 || sc.Sub >= len(subs) {
			return nil, fmt.Errorf("core: checkpoint finished sub %d out of range", sc.Sub)
		}
		rs.done[sc.Sub] = sc
	}
	return rs, nil
}

// sub returns the checkpoint record of partial problem i, nil when it must
// still be solved (nil-safe).
func (rs *resumeState) sub(i int) *SubCheckpoint {
	if rs == nil {
		return nil
	}
	return rs.done[i]
}
