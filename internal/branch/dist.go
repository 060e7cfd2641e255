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
	d, _ := BDistWithin(a, b, a.Size+b.Size) // a limit BDist never exceeds
	return d
}

// BDistWithin decides BDist(a,b) ≤ limit, with the (bound, ok) contract of
// RangeLowerBoundWithin: ok holds exactly when BDist ≤ limit, and lb is
// then BDist, else a certified bound in (limit, BDist].
//
// L1(a,b) = |a| + |b| − 2·overlap, the overlap Σ_d min(a[d], b[d]) coming
// from a merge of the sorted dimension arrays (an inverted file gets the
// same sum from the postings of the query's branches). The overlap still
// reachable is the part matched so far plus the smaller unmerged
// remainder, read off the offs prefix, so the merge stops once that cannot
// reach ⌈(|a|+|b|−limit)/2⌉. It checks after every run of up to four steps
// per array; a limit of |a|+|b| or more cannot stop it and gets one run.
func BDistWithin(a, b *Profile, limit int) (lb int, ok bool) {
	sameSpace(a, b)
	total := a.Size + b.Size
	ad, bd := a.Dims(), b.Dims()
	ao, bo := a.f.offs[a.lo:a.hi+1], b.f.offs[b.lo:b.hi+1]
	run := 4
	if limit >= total {
		run = len(ad) + len(bd)
	}
	ov, i, j := 0, 0, 0
	for i < len(ad) && j < len(bd) {
		i, j, ov = merge(ad[:min(i+run, len(ad))], bd[:min(j+run, len(bd))], ao, bo, i, j, ov)
		if reach := ov + int(min(ao[len(ad)]-ao[i], bo[len(bd)]-bo[j])); total-2*reach > limit {
			return total - 2*reach, false
		}
	}
	d := total - 2*ov
	return d, d <= limit
}

// merge runs the merge join of the two dimension arrays from (i, j) until
// either ends, adding each shared dimension's smaller count to ov. The
// unsigned loop tests let the compiler drop the index checks on ad and bd.
// Inlined, BDistWithin's state would compete with the join for registers,
// and a full merge ran about a tenth slower.
//
//go:noinline
func merge(ad, bd []Dim, ao, bo []uint32, i, j, ov int) (int, int, int) {
	for uint(i) < uint(len(ad)) && uint(j) < uint(len(bd)) {
		switch x, y := ad[i], bd[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			ov += int(min(ao[i+1]-ao[i], bo[j+1]-bo[j]))
			i++
			j++
		}
	}
	return i, j, ov
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
