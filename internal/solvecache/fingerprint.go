// Package solvecache is the cross-solve cache behind recurring MQO
// workloads: the same query batches return solve after solve with drifted
// cost weights, and everything expensive about a solve — the recursive
// annealer-backed partitioning, the per-sub-problem encoding skeletons,
// even a good starting point for the anneal itself — depends only on the
// problem *structure*, which those recurrences share. The cache extends the
// paper's within-solve insight (PR 3: structure is invariant, only weights
// move) across solves:
//
//   - Structure tier: a canonical shape-only fingerprint of the problem
//     keys the whole recursive partitioning. On a hit the solve skips
//     bisection entirely; partition.Refit only re-bisects query sets that
//     stopped fitting the capacity (none, on a plain recurrence).
//   - Skeleton tier: encoding.PreparedMQO skeletons are pooled per
//     sub-problem shape and rebound to the new weights in place, so a hit
//     solve never rebuilds a QUBO term structure.
//   - Warm-start tier: the previous incumbent's plan selections seed part
//     of the annealing runs when the relative weight drift is within a
//     configured bound (core.Options.WarmStartDrift).
//
// Correctness never rests on the fingerprint: a hash collision at the
// structure tier is caught by Refit's coverage validation (the cached query
// sets reference the wrong queries) and at the skeleton tier by Rebind's
// shape validation — both degrade to the cold path.
package solvecache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"incranneal/internal/mqo"
)

// Key is a structure fingerprint: a sha256 digest over a canonical
// serialisation of a problem's shape.
type Key [sha256.Size]byte

// Short returns an abbreviated hex form for logs and stats.
func (k Key) Short() string { return hex.EncodeToString(k[:6]) }

// StructureKey fingerprints the SHAPE of p: the number of queries, each
// query's plan count, and every saving's canonical plan pair. Cost and
// saving values are deliberately excluded — two recurrences of the same
// workload with drifted weights share a key — but the savings *pairs* are
// included, so adding, removing or re-wiring any saving changes the key.
// Problems store savings canonically sorted and de-duplicated, so equal
// shapes serialise identically. It hashes the whole savings list, so a
// solve computes each key it needs once (see Cache).
func StructureKey(p *mqo.Problem) Key {
	w := keyWriter{h: sha256.New()}
	w.h.Write([]byte("incranneal/structure/v1"))
	w.word(uint64(p.NumQueries()))
	for q := 0; q < p.NumQueries(); q++ {
		w.word(uint64(len(p.Plans(q))))
	}
	w.word(uint64(p.NumSavings()))
	for _, s := range p.Savings() {
		w.word(uint64(s.P1))
		w.word(uint64(s.P2))
	}
	w.h.Write(w.buf[:w.n])
	var k Key
	w.h.Sum(k[:0])
	return k
}

// keyWriter feeds a hash little-endian 64-bit words through a block
// buffer: one Write per word costs more than the hashing.
type keyWriter struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

func (w *keyWriter) word(v uint64) {
	if w.n == len(w.buf) {
		w.h.Write(w.buf[:])
		w.n = 0
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

// WeightDrift measures how far p's weights have moved from a cached
// snapshot of plan costs and saving values: the L1 distance over all
// weights, relative to the snapshot's L1 mass. 0 means bit-identical
// weights; a recurrence with every weight jittered ±5% lands near 0.05.
// Snapshot lengths must match p (the caller guarantees this via the
// structure key); weights present only on one side would be a structure
// change, not drift.
func WeightDrift(p *mqo.Problem, costs, savings []float64) float64 {
	var num, den float64
	for pl := 0; pl < p.NumPlans(); pl++ {
		num += math.Abs(p.Cost(pl) - costs[pl])
		den += math.Abs(costs[pl])
	}
	for i, s := range p.Savings() {
		num += math.Abs(s.Value - savings[i])
		den += math.Abs(savings[i])
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}
