package partition

// PostProcess implements Algorithm 1 of the paper: it shifts queries from
// part1 to part2 whenever their accumulated savings (conformance) to part2
// exceed those to their own partition, repeating for numParses parses so
// that shifts of strongly associated queries can cascade, and never
// shrinking part1 below minSize queries. It returns the adjusted
// partitions; the inputs are not modified.
//
// Theorem 4.5 makes only the exact minimum of the bisection QUBO
// balanced; annealer samples need not be. Either way, this pass trades
// balance for recovered savings, with minSize giving full control over the
// minimum partition size required to achieve a sufficient problem-size
// reduction (the pipeline uses a quarter of the subset's queries).
func PostProcess(g *Graph, part1, part2 []int, numParses, minSize int) ([]int, []int) {
	p1 := append([]int(nil), part1...)
	p2 := append([]int(nil), part2...)
	if numParses <= 0 {
		return p1, p2
	}
	if minSize < 1 {
		minSize = 1
	}
	// row holds one query's edge weights at a time, scattered from its
	// adjacency row and cleared after use; the conformance sums read it
	// in set order, adding the same floats in the same order as
	// AccumulatedSavings.
	row := make([]float64, g.NumNodes())
	conformance := func(query int, set []int) float64 {
		var t float64
		for _, other := range set {
			if other != query {
				t += row[other]
			}
		}
		return t
	}
	for parse := 0; parse < numParses; parse++ {
		moved := false
		// Iterate over a snapshot: Algorithm 1 removes from part1 while
		// scanning it.
		snapshot := append([]int(nil), p1...)
		for _, query := range snapshot {
			if len(p1) <= minSize {
				break
			}
			nbr, wt := g.row(query)
			for k, other := range nbr {
				row[other] = wt[k]
			}
			p1Conf := conformance(query, p1)
			p2Conf := conformance(query, p2)
			for _, other := range nbr {
				row[other] = 0
			}
			if p1Conf < p2Conf {
				p1 = remove(p1, query)
				p2 = append(p2, query)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return p1, p2
}

// PostProcessBest runs PostProcess on both possible partition orientations
// — the outcome depends on which set sheds queries — and returns the result
// with the lower cut weight, as the paper recommends.
func PostProcessBest(g *Graph, part1, part2 []int, numParses, minSize int) ([]int, []int) {
	a1, a2 := PostProcess(g, part1, part2, numParses, minSize)
	b2, b1 := PostProcess(g, part2, part1, numParses, minSize)
	if g.CutWeight(a1, a2) <= g.CutWeight(b1, b2) {
		return a1, a2
	}
	return b1, b2
}

func remove(set []int, query int) []int {
	for i, q := range set {
		if q == query {
			return append(set[:i], set[i+1:]...)
		}
	}
	return set
}
