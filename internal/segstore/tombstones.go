package segstore

import "slices"

// Tombstones is an immutable set of deleted ids, held as one strictly
// ascending slice. Mutation returns a new set (copy-on-write), so a
// published View's tombstones never change under a reader; a nil
// *Tombstones is the valid empty set. A scan over ascending ids walks the
// set with a Cursor instead of probing it per id.
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

// From returns a cursor over the set positioned at the first tombstoned id
// ≥ id: where a scan over ascending ids starting at id begins.
func (t *Tombstones) From(id int) Cursor {
	ids := t.IDs()
	i, _ := slices.BinarySearch(ids, id)
	return Cursor{ids: ids[i:]}
}

// Cursor walks a tombstone set beside an ascending id sequence, so each
// membership test is a compare against the next tombstone, not a search.
type Cursor struct {
	ids []int
}

// Has reports whether id is tombstoned. Successive calls must pass
// non-decreasing ids.
func (c *Cursor) Has(id int) bool {
	for len(c.ids) > 0 && c.ids[0] < id {
		c.ids = c.ids[1:]
	}
	return len(c.ids) > 0 && c.ids[0] == id
}
