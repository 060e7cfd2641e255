package segstore

import "slices"

// Tombstones is an immutable set of deleted ids, held as one strictly
// ascending slice. Mutation returns a new set (copy-on-write), so a
// published View's tombstones never change under a reader; a nil
// *Tombstones is the valid empty set. A scan over a segment's positions
// asks for the tombstoned ones of a run with Locals instead of probing the
// set per id.
type Tombstones struct {
	ids []int
}

// NewTombstones builds a set from ids in any order, duplicates allowed (nil
// for an empty list).
func NewTombstones(ids []int) *Tombstones {
	if len(ids) == 0 {
		return nil
	}
	s := slices.Clone(ids)
	slices.Sort(s)
	return &Tombstones{ids: slices.Compact(s)}
}

// Has reports whether id is tombstoned, by binary search.
func (t *Tombstones) Has(id int) bool {
	_, ok := slices.BinarySearch(t.IDs(), id)
	return ok
}

// Len returns the set size.
func (t *Tombstones) Len() int { return len(t.IDs()) }

// IDs returns the tombstoned ids in ascending order. The slice is shared;
// callers must not modify it.
func (t *Tombstones) IDs() []int {
	if t == nil {
		return nil
	}
	return t.ids
}

// With returns the set plus id.
func (t *Tombstones) With(id int) *Tombstones {
	return NewTombstones(append(slices.Clip(t.IDs()), id))
}

// Without returns the set minus ids (nil when it empties).
func (t *Tombstones) Without(ids []int) *Tombstones {
	if t == nil || len(ids) == 0 {
		return t
	}
	drop := NewTombstones(ids)
	return NewTombstones(slices.DeleteFunc(slices.Clone(t.ids), drop.Has))
}

// Locals appends to dst, ascending, the local positions in [lo, hi) of
// segment s whose ids the set holds: what a scan over a run of the
// segment's positions skips, found by one search of the set and, where s
// lists its ids, one of the run per tombstone inside it, instead of a
// probe per position.
func (t *Tombstones) Locals(s *Segment, lo, hi int, dst []int) []int {
	if lo >= hi {
		return dst
	}
	ids := t.IDs()
	i, _ := slices.BinarySearch(ids, s.ID(lo))
	for last := s.ID(hi - 1); i < len(ids) && ids[i] <= last; i++ {
		if s.IDs == nil {
			dst = append(dst, ids[i]-s.Base)
			continue
		}
		j, ok := slices.BinarySearch(s.IDs[lo:hi], ids[i])
		if lo += j; ok {
			dst = append(dst, lo)
			lo++
		}
	}
	return dst
}
