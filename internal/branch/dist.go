package branch

// BDist returns the (q-level) binary branch distance of Definition 4: the
// L1 distance of the two branch vectors. Complexity O(|T1| + |T2|).
//
// BDist is a pseudometric on trees (non-negative, symmetric, triangle
// inequality) but not a metric: distinct trees can share a branch vector
// (Fig. 4 of the paper). By Theorems 3.2/3.3 it lower-bounds the unit-cost
// tree edit distance scaled by Factor(q):
//
//	BDist(T1,T2) ≤ Factor(q) · EDist(T1,T2)
func BDist(a, b *Profile) int {
	sameSpace(a, b)
	return a.Size + b.Size - 2*overlap(a, b)
}

// overlap returns the size of the multiset intersection of the two branch
// vectors, Σ_d min(a[d], b[d]), by merging the sorted dimension arrays.
// L1(a,b) = |a| + |b| − 2·overlap(a,b), which is also the form an inverted
// file computes it in: one accumulator per tree, fed by the postings of the
// query's branches.
func overlap(a, b *Profile) int {
	ad, bd := a.Dims(), b.Dims()
	ao, bo := a.f.offs[a.lo:], b.f.offs[b.lo:]
	ov := 0
	i, j := 0, 0
	for i < len(ad) && j < len(bd) {
		switch {
		case ad[i] < bd[j]:
			i++
		case ad[i] > bd[j]:
			j++
		default:
			ov += int(min(ao[i+1]-ao[i], bo[j+1]-bo[j]))
			i++
			j++
		}
	}
	return ov
}

// EditLowerBound converts a q-level binary branch distance into a lower
// bound on the unit-cost tree edit distance: ceil(bdist / Factor(q)).
func EditLowerBound(bdist, q int) int {
	f := Factor(q)
	return (bdist + f - 1) / f
}

// BDistLowerBound returns the plain (non-positional) edit distance lower
// bound ceil(BDist(a,b)/Factor(q)).
func BDistLowerBound(a, b *Profile) int {
	return EditLowerBound(BDist(a, b), a.Q())
}
