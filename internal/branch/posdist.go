package branch

// Positional binary branch distance (Section 4.2).
//
// Two occurrences of the same branch in T1 and T2 may be matched under
// positional range pr only if both their preorder positions and their
// postorder positions differ by at most pr (Proposition 4.1: an edit
// mapping of cost ≤ pr displaces a node's preorder/postorder position by at
// most pr). The positional binary branch distance with range pr is
//
//	PosBDist(T1,T2,pr) = Σ_j (b1j + b2j − 2·|M'max(T1,T2,j,pr)|)
//	                   = |T1| + |T2| − 2·Σ_j |M'max(T1,T2,j,pr)|
//
// where M'max is a maximum-cardinality matching of the occurrences of
// branch j (Definition 6). Proposition 4.2: PosBDist(T1,T2,l) > 5l implies
// EDist(T1,T2) > l (with 5 generalizing to Factor(q)).
//
// Computing |M'max| exactly matters for correctness: an undersized matching
// would inflate PosBDist and could prune true results. Occurrence lists are
// produced in ascending preorder position; when the postorder positions are
// also ascending in both lists (no occurrence is an ancestor of another —
// the overwhelmingly common case), the compatibility neighborhoods form
// monotone intervals and a linear greedy sweep is provably maximum.
// Otherwise we fall back to an exact augmenting-path maximum bipartite
// matching.

// PosBDist returns the positional binary branch distance between the two
// profiles with positional range pr. It is monotonically non-increasing in
// pr, equals BDist(a,b) for pr ≥ max(|T1|,|T2|), and is at least BDist(a,b)
// everywhere.
func PosBDist(a, b *Profile, pr int) int {
	sameSpace(a, b)
	return a.Size + b.Size - 2*matched(a, b, pr)
}

// matched returns Σ_j |M'max(a,b,j,pr)| by merging the sorted dimension
// arrays and matching the occurrence lists of each shared dimension.
func matched(a, b *Profile, pr int) int {
	ad, bd := a.Dims(), b.Dims()
	ao, bo := a.f.offs[a.lo:], b.f.offs[b.lo:]
	m := 0
	i, j := 0, 0
	for i < len(ad) && j < len(bd) {
		switch {
		case ad[i] < bd[j]:
			i++
		case ad[i] > bd[j]:
			j++
		default:
			av, bv := a.f.occ[ao[i]:ao[i+1]], b.f.occ[bo[j]:bo[j+1]]
			if len(av) == 1 && len(bv) == 1 {
				// The common case, settled without a call.
				if compatible(av[0], bv[0], pr) {
					m++
				}
			} else {
				m += MatchSize(av, bv, pr)
			}
			i++
			j++
		}
	}
	return m
}

// MatchSize returns |M'max|: the maximum number of occurrence pairs (one
// from each list) that can be matched one-to-one under positional range pr.
// Both lists must be sorted by ascending Pre (as produced by Profile).
func MatchSize(av, bv []Occurrence, pr int) int {
	if len(av) == 0 || len(bv) == 0 {
		return 0
	}
	// Two provably-exact greedy regimes: posts ascending in both lists
	// (sibling-structured occurrences) or descending in both (ancestor
	// chains, e.g. a(a(a(...)))). In both, later elements dominate
	// earlier ones consistently in each coordinate, so compatibility
	// neighborhoods are monotone intervals and the greedy sweep is a
	// maximum matching.
	if postSorted(av) && postSorted(bv) {
		return greedyMatch(av, bv, pr, +1)
	}
	if postDescending(av) && postDescending(bv) {
		return greedyMatch(av, bv, pr, -1)
	}
	return exactMatch(av, bv, pr)
}

func compatible(a, b Occurrence, pr int) bool {
	return absDiff(a.Pre, b.Pre) <= int32(pr) && absDiff(a.Post, b.Post) <= int32(pr)
}

func absDiff(x, y int32) int32 {
	if x > y {
		return x - y
	}
	return y - x
}

// postSorted reports whether Post is non-decreasing along the (Pre-sorted)
// list. If it is, later occurrences dominate earlier ones in both
// coordinates, which is what makes the greedy sweep exact.
func postSorted(v []Occurrence) bool {
	for i := 1; i < len(v); i++ {
		if v[i].Post < v[i-1].Post {
			return false
		}
	}
	return true
}

// postDescending reports whether Post is non-increasing along the
// (Pre-sorted) list — the signature of occurrences forming an
// ancestor-descendant chain.
func postDescending(v []Occurrence) bool {
	for i := 1; i < len(v); i++ {
		if v[i].Post > v[i-1].Post {
			return false
		}
	}
	return true
}

// greedyMatch computes a maximum matching in linear time when both lists
// are monotone in Post with the same direction (dir = +1 ascending,
// dir = −1 descending; Pre always ascends). At each step either the heads
// are compatible (match them: with monotone interval neighborhoods the
// leftmost-leftmost exchange argument applies), or one head is strictly
// outside the other's window in a coordinate that only moves further away
// along the other list, so it is discarded.
func greedyMatch(av, bv []Occurrence, pr int, dir int32) int {
	i, j, m := 0, 0, 0
	p := int32(pr)
	for i < len(av) && j < len(bv) {
		a, b := av[i], bv[j]
		if compatible(a, b, pr) {
			m++
			i++
			j++
			continue
		}
		// In the oriented coordinates (Pre, dir·Post), later elements of
		// each list are never smaller; a head strictly below the other's
		// window in either oriented coordinate is unmatchable from here
		// on.
		if a.Pre < b.Pre-p || dir*a.Post < dir*b.Post-p {
			i++
			continue
		}
		// Symmetrically b is unmatchable against av[i:].
		j++
	}
	return m
}

// exactMatch computes a maximum bipartite matching with augmenting paths
// (Kuhn's algorithm, O(V·E)). It is only reached when a branch occurs at
// two positions where one occurrence is an ancestor of the other — rare,
// and the lists involved are short in practice.
func exactMatch(av, bv []Occurrence, pr int) int {
	// adj[i] lists the b-indices compatible with av[i].
	adj := make([][]int, len(av))
	for i, a := range av {
		for j, b := range bv {
			if compatible(a, b, pr) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	matchB := make([]int, len(bv))
	for i := range matchB {
		matchB[i] = -1
	}
	visited := make([]bool, len(bv))
	var try func(i int) bool
	try = func(i int) bool {
		for _, j := range adj[i] {
			if visited[j] {
				continue
			}
			visited[j] = true
			if matchB[j] == -1 || try(matchB[j]) {
				matchB[j] = i
				return true
			}
		}
		return false
	}
	m := 0
	for i := range av {
		for k := range visited {
			visited[k] = false
		}
		if try(i) {
			m++
		}
	}
	return m
}
