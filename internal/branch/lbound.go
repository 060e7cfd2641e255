package branch

import "math"

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
//
// The search runs only over the window that can decide it. The predicate
// fails below ⌈BDist/Factor(q)⌉, since PosBDist ≥ BDist, so a caller that
// holds that tier passes it as a floor; it holds wherever Factor(q)·pr ≥
// |T1|+|T2| ≥ PosBDist, which caps the search below prmax for most pairs;
// and a caller that only needs to know whether the bound exceeds a
// threshold θ caps it at θ. Each probe stops merging once it has matched
// enough occurrences for the predicate to hold, or has lost too many for
// it to (see holds).

// SearchLBound returns the optimistic lower bound on EDist(a,b): the
// tightest bound obtainable from positional binary branch distances.
// Complexity: O((|T1|+|T2|) · log min(|T1|,|T2|)).
func SearchLBound(a, b *Profile) int {
	return SearchLBoundWithin(a, b, 0, math.MaxInt)
}

// SearchLBoundWithin returns max(floor, SearchLBound(a,b)) whenever that is
// at most theta, and otherwise a value in (theta, max(floor,
// SearchLBound(a,b))]: a k-NN or range scan at a threshold of theta learns
// the bound exactly where it can decide, and that the pair is out where it
// cannot. A floor at most ⌈BDist(a,b)/Factor(q)⌉ — zero, or that tier —
// leaves SearchLBound itself; any floor that is a lower bound on EDist
// keeps the result one. The search is the smallest pr ≥ max(||T1|−|T2||,
// floor) at which the monotone predicate holds, over pr no larger than
// theta + 1, max(|T1|,|T2|) and ⌈(|T1|+|T2|)/Factor(q)⌉.
func SearchLBoundWithin(a, b *Profile, floor, theta int) int {
	sameSpace(a, b)
	f := Factor(a.Q())
	lo := max(sizeDiff(a, b), floor)
	// The predicate holds at hi: PosBDist ≤ |T1|+|T2| ≤ f·hi at the second,
	// and BDist ≤ |T1|+|T2| ≤ 2·max(|T1|,|T2|) at the first.
	hi := min(max(a.Size, b.Size), (a.Size+b.Size+f-1)/f)
	if lo >= hi || lo > theta {
		return lo
	}
	// Invariant: the predicate fails below lo, and holds at hi or hi is
	// theta+1, a bound the caller reads only as "above theta". A threshold
	// leaves a short window, which is bisected. Without one — a k-NN
	// query's first answers — the bound most often lies within a few of
	// the floor, so the search gallops up from it first: lo, lo+2, lo+6, …
	if theta < hi {
		hi = theta + 1
	} else {
		for step := 1; lo < hi; step *= 2 {
			p := min(lo+step-1, hi-1)
			if holds(a, b, p) {
				hi = p
				break
			}
			lo = p + 1
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if holds(a, b, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sizeDiff returns ||T1|−|T2||, the size lower bound and prmin of the
// search.
func sizeDiff(a, b *Profile) int {
	if a.Size > b.Size {
		return a.Size - b.Size
	}
	return b.Size - a.Size
}

// holds decides the search's predicate PosBDist(a,b,pr) ≤ Factor(q)·pr,
// that is Σ_j |M'max(j,pr)| ≥ need = ⌈(|T1|+|T2|−Factor(q)·pr)/2⌉, by the
// merge of matched cut short: it stops once the matched occurrences reach
// need, or once those matched plus the fewer of either side's occurrences
// not yet merged fall below it. The occurrences are counted off the offs
// prefix, not Size, so a lookup-only query profile's branches without a
// coordinate, which match nothing, are lost from the start.
func holds(a, b *Profile, pr int) bool {
	need := (a.Size + b.Size - Factor(a.Q())*pr + 1) / 2
	if need <= 0 {
		return true
	}
	ad, bd := a.Dims(), b.Dims()
	ao, bo := a.f.offs[a.lo:a.hi+1], b.f.offs[b.lo:b.hi+1]
	aEnd, bEnd := ao[len(ad)], bo[len(bd)]
	if int(min(aEnd-ao[0], bEnd-bo[0])) < need {
		return false
	}
	m, i, j := 0, 0, 0
	for i < len(ad) && j < len(bd) {
		switch {
		case ad[i] < bd[j]:
			i++
		case ad[i] > bd[j]:
			j++
		default:
			av, bv := a.f.occ[ao[i]:ao[i+1]], b.f.occ[bo[j]:bo[j+1]]
			if len(av) == 1 && len(bv) == 1 {
				if compatible(av[0], bv[0], pr) {
					m++
				}
			} else {
				m += MatchSize(av, bv, pr)
			}
			i++
			j++
			if m >= need {
				return true
			}
			if m+int(min(aEnd-ao[i], bEnd-bo[j])) < need {
				return false
			}
		}
	}
	return false
}

// RangeLowerBound returns a lower-bound value L specialized for a range
// query with threshold tau: L > tau implies EDist(a,b) > tau, so the pair
// can be safely pruned. Following Section 4.3 it combines the optimistic
// bound of SearchLBound with ceil(PosBDist(a,b,tau)/Factor(q)), which is a
// valid filter at threshold tau because EDist ≤ tau would force
// PosBDist(a,b,tau) ≤ Factor(q)·EDist.
//
// The second term decides nothing the first does not: RangeLowerBound ≤
// tau exactly when SearchLBound ≤ tau, and the two are then equal. If s =
// SearchLBound ≤ tau, then PosBDist(tau) ≤ PosBDist(s) ≤ Factor(q)·s, as
// PosBDist is non-increasing, so ⌈PosBDist(tau)/Factor(q)⌉ ≤ s; and
// RangeLowerBound ≥ SearchLBound always. So a scan at tau can run
// SearchLBoundWithin at tau for both query kinds.
func RangeLowerBound(a, b *Profile, tau int) int {
	sameSpace(a, b)
	f := Factor(a.Q())
	atTau := (PosBDist(a, b, tau) + f - 1) / f
	return max(atTau, SearchLBound(a, b))
}

// RangeLowerBoundWithin decides RangeLowerBound(a,b,tau) ≤ tau and reports
// the bound itself for the pairs that pass. It tests the size bound and
// BDist ≤ Factor(q)·tau first (PosBDist ≥ BDist), then searches at most up
// to tau from the BDist tier's floor, which by RangeLowerBound's proof
// decides the rest. When ok is false the returned value is the failing
// test's bound, which exceeds tau — for the last test ⌈PosBDist(tau) /
// Factor(q)⌉; when ok is true it equals RangeLowerBound(a,b,tau).
func RangeLowerBoundWithin(a, b *Profile, tau int) (lb int, ok bool) {
	sameSpace(a, b)
	f := Factor(a.Q())
	if prmin := sizeDiff(a, b); prmin > tau {
		return prmin, false
	}
	// BDist ≤ |a|+|b|: a cap there cannot stop the join, nor overflow.
	bd, ok := BDistWithin(a, b, f*min(tau, a.Size+b.Size))
	if !ok {
		return (bd + f - 1) / f, false
	}
	if s := SearchLBoundWithin(a, b, (bd+f-1)/f, tau); s <= tau {
		return s, true
	}
	return (PosBDist(a, b, tau) + f - 1) / f, false
}
