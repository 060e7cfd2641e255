package branch

// SearchLBound (Section 4.3, function SearchLBound of Algorithm 2) derives
// the best positional lower bound on the tree edit distance by binary
// search over the positional range.
//
// For any pr, Proposition 4.2 gives: PosBDist(a,b,pr) > Factor(q)·pr
// implies EDist > pr. PosBDist is non-increasing in pr while Factor(q)·pr
// is increasing, so the predicate "PosBDist(pr) ≤ Factor(q)·pr" is monotone
// and the smallest pr satisfying it — call it pr_opt — is found by binary
// search over [prmin, prmax] with prmin = ||T1|−|T2|| (itself a valid lower
// bound, since each edit operation changes the size by at most one) and
// prmax = max(|T1|,|T2|) (beyond which positional constraints are vacuous
// and PosBDist degenerates to BDist). pr_opt is a valid lower bound:
// either pr_opt = prmin, or the predicate fails at pr_opt−1 and
// Proposition 4.2 yields EDist ≥ pr_opt. SearchLBound dominates the plain
// bound: pr_opt ≥ ceil(BDist/Factor(q)).

// SearchLBound returns the optimistic lower bound on EDist(a,b): the
// tightest bound obtainable from positional binary branch distances.
// Complexity: O((|T1|+|T2|) · log min(|T1|,|T2|)).
func SearchLBound(a, b *Profile) int {
	sameSpace(a, b)
	return searchFrom(a, b, Factor(a.Q()), sizeDiff(a, b), max(a.Size, b.Size))
}

// sizeDiff returns ||T1|−|T2||, the size lower bound and prmin of the
// search.
func sizeDiff(a, b *Profile) int {
	if a.Size > b.Size {
		return a.Size - b.Size
	}
	return b.Size - a.Size
}

// searchFrom returns the smallest pr in [lo, hi] with
// PosBDist(a,b,pr) ≤ f·pr, given that the predicate holds at hi.
func searchFrom(a, b *Profile, f, lo, hi int) int {
	if lo >= hi || a.Size+b.Size-2*matched(a, b, lo) <= f*lo {
		return lo
	}
	// Invariant: predicate fails at lo-1, holds at hi.
	lo++
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a.Size+b.Size-2*matched(a, b, mid) <= f*mid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// RangeLowerBound returns a lower-bound value L specialized for a range
// query with threshold tau: L > tau implies EDist(a,b) > tau, so the pair
// can be safely pruned. Following Section 4.3 it combines the optimistic
// bound of SearchLBound with ceil(PosBDist(a,b,tau)/Factor(q)), which is a
// valid filter at threshold tau because EDist ≤ tau would force
// PosBDist(a,b,tau) ≤ Factor(q)·EDist.
func RangeLowerBound(a, b *Profile, tau int) int {
	sameSpace(a, b)
	f := Factor(a.Q())
	atTau := (PosBDist(a, b, tau) + f - 1) / f
	return max(atTau, SearchLBound(a, b))
}

// RangeLowerBoundWithin decides RangeLowerBound(a,b,tau) ≤ tau with a
// single PosBDist probe and reports the bound itself only for the pairs
// that pass. The predicate PosBDist(pr) ≤ Factor(q)·pr is monotone in pr,
// so SearchLBound(a,b) ≤ tau exactly when ||T1|−|T2|| ≤ tau and the
// predicate holds at tau — which is also the ceil(PosBDist(tau)/Factor(q))
// ≤ tau half of RangeLowerBound, which BDist > Factor(q)·tau already fails
// (PosBDist ≥ BDist): BDistWithin tests that first. When ok is false the
// returned value is the failing test's bound, which exceeds tau; when ok
// is true it equals RangeLowerBound(a,b,tau), found by searching [prmin,
// tau] only.
func RangeLowerBoundWithin(a, b *Profile, tau int) (lb int, ok bool) {
	sameSpace(a, b)
	f := Factor(a.Q())
	prmin := sizeDiff(a, b)
	if prmin > tau {
		return prmin, false
	}
	// BDist ≤ |a|+|b|: a cap there cannot stop the join, nor overflow.
	if bd, ok := BDistWithin(a, b, f*min(tau, a.Size+b.Size)); !ok {
		return (bd + f - 1) / f, false
	}
	atTau := (PosBDist(a, b, tau) + f - 1) / f
	if atTau > tau {
		return atTau, false
	}
	return max(atTau, searchFrom(a, b, f, prmin, tau)), true
}
