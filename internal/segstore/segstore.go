// Package segstore is the segmented, epoch-based storage engine under the
// live search index: an LSM-style lifecycle for an append-mostly dataset
// with deletes.
//
// Writes land in a small mutable memtable; when it reaches the configured
// size it is sealed into an immutable segment (the caller's Snapshot hook
// freezes the payload without copying data, and may build an index over
// the sealed entries, in O(MemtableSize)). Deletes are
// tombstones in an immutable copy-on-write set. Background compaction
// merges every sealed segment into one, dropping tombstoned entries and
// letting the caller rebuild expensive per-segment structures (filters)
// outside any lock. Readers take a consistent cut — the immutable segment
// list and tombstone set are published through one atomic pointer per
// epoch, and the memtable is peeked under a mutex held for O(1).
//
// The store is generic over the segment payload (an opaque `any` the
// caller owns); it manages only identity, lifecycle and visibility:
//
//   - ids are assigned monotonically and never reused, so NextID is the
//     dataset's high-water mark (deleted ids stay burned);
//   - a View's generation increases with every structural change
//     (seal, delete, compaction), while Epoch also counts inserts — the
//     invalidation point for anything cached per logical dataset state;
//   - tombstones always refer to ids present in some segment or the
//     memtable; compaction resolves exactly the tombstones whose ids it
//     merged away.
package segstore

import (
	"sync"
	"sync/atomic"
)

// Defaults for the zero Config.
const (
	// DefaultMemtableSize is how many entries the memtable accepts before
	// it is sealed into an immutable segment.
	DefaultMemtableSize = 1024
	// DefaultCompactAfter is how many sealed segments accumulate before
	// ShouldCompact reports true.
	DefaultCompactAfter = 4
)

// Config sizes the store's lifecycle; zero fields take the defaults.
type Config struct {
	// MemtableSize is the seal threshold (entries per memtable).
	MemtableSize int
	// CompactAfter is the sealed-segment count that makes ShouldCompact
	// report true. Negative disables the advisory trigger entirely.
	CompactAfter int
}

func (c Config) memtableSize() int {
	if c.MemtableSize <= 0 {
		return DefaultMemtableSize
	}
	return c.MemtableSize
}

func (c Config) compactAfter() int {
	if c.CompactAfter == 0 {
		return DefaultCompactAfter
	}
	return c.CompactAfter
}

// Hooks are the payload callbacks the store calls under its mutation lock.
type Hooks struct {
	// NewMem creates an empty memtable payload whose first entry will get
	// id base. It must be O(1).
	NewMem func(base int) any
	// Snapshot freezes the first n entries of a memtable payload into an
	// immutable payload safe for concurrent readers while the original
	// keeps growing. seal is false for a reader's cut, which every query
	// takes, so that call must be O(1) (slice-header copies, not data
	// copies). seal is true when the payload becomes a sealed segment,
	// once per MemtableSize inserts: that call may also build what the
	// segment keeps for good, in O(n).
	Snapshot func(mem any, n int, seal bool) any
}

// Segment is an immutable run of entries. IDs == nil means the ids are
// contiguous [Base, Base+N); a compacted segment with holes (resolved
// tombstones) carries the explicit ascending id list instead.
type Segment struct {
	Base    int
	N       int
	IDs     []int
	Payload any
}

// Len returns the number of entries.
func (s *Segment) Len() int { return s.N }

// ID returns the dataset id of the segment-local entry.
func (s *Segment) ID(local int) int {
	if s.IDs != nil {
		return s.IDs[local]
	}
	return s.Base + local
}

// MinID returns the smallest id (undefined for empty segments).
func (s *Segment) MinID() int {
	if s.IDs != nil {
		return s.IDs[0]
	}
	return s.Base
}

// MaxID returns the largest id (undefined for empty segments).
func (s *Segment) MaxID() int {
	if s.IDs != nil {
		return s.IDs[len(s.IDs)-1]
	}
	return s.Base + s.N - 1
}

// Find returns the local position of id, or false when the segment does
// not hold it.
func (s *Segment) Find(id int) (int, bool) {
	if s.N == 0 {
		return 0, false
	}
	if s.IDs == nil {
		if id < s.Base || id >= s.Base+s.N {
			return 0, false
		}
		return id - s.Base, true
	}
	lo, hi := 0, len(s.IDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.IDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.IDs) && s.IDs[lo] == id {
		return lo, true
	}
	return 0, false
}

// View is one epoch's immutable state: the sealed segments (oldest first,
// strictly ascending id ranges) and the unresolved tombstones. Tombstones
// may also refer to memtable ids not covered by Segments; a Cut always
// covers them.
type View struct {
	Gen      uint64
	Segments []*Segment
	Tombs    *Tombstones
}

// Cut is a reader's consistent snapshot: the view's sealed segments plus a
// frozen snapshot of the memtable (appended as a final segment when
// non-empty). Every unresolved tombstone refers to an id inside Segments.
type Cut struct {
	Gen      uint64
	Segments []*Segment
	Tombs    *Tombstones
	NextID   int
}

// Total returns the number of entries across all segments, tombstoned
// ones included.
func (c Cut) Total() int {
	n := 0
	for _, sg := range c.Segments {
		n += sg.N
	}
	return n
}

// Live returns the number of visible (non-tombstoned) entries.
func (c Cut) Live() int { return c.Total() - c.Tombs.Len() }

// Find locates a visible id in the cut: the segment holding it and its
// local position there, or false when the id is absent or tombstoned.
func (c Cut) Find(id int) (*Segment, int, bool) {
	if c.Tombs.Has(id) {
		return nil, 0, false
	}
	lo, hi := 0, len(c.Segments)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Segments[mid].N == 0 || c.Segments[mid].MaxID() < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(c.Segments) {
		return nil, 0, false
	}
	local, ok := c.Segments[lo].Find(id)
	if !ok {
		return nil, 0, false
	}
	return c.Segments[lo], local, true
}

// Stats is a point-in-time gauge snapshot for observability.
type Stats struct {
	Epoch       uint64
	Gen         uint64
	Segments    int // sealed segments (memtable excluded)
	MemtableLen int
	Tombstones  int
	NextID      int
	Live        int
	Seals       uint64
	Compactions uint64
}

// Store coordinates the segment lifecycle. Methods are safe for
// concurrent use.
type Store struct {
	cfg   Config
	hooks Hooks

	mu      sync.Mutex
	view    atomic.Pointer[View]
	nextID  int
	memBase int
	memLen  int
	mem     any

	epoch       atomic.Uint64
	compacting  atomic.Bool
	seals       atomic.Uint64
	compactions atomic.Uint64
}

// New returns an empty store.
func New(cfg Config, hooks Hooks) *Store {
	s := &Store{cfg: cfg, hooks: hooks}
	s.view.Store(&View{})
	s.mem = hooks.NewMem(0)
	return s
}

// Bootstrap installs recovered state: sealed segments (oldest first,
// strictly ascending id ranges), unresolved tombstone ids, and the
// high-water id. It must run before any concurrent use.
func (s *Store) Bootstrap(segs []*Segment, tombIDs []int, nextID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.view.Store(&View{Segments: segs, Tombs: NewTombstones(tombIDs)})
	s.nextID = nextID
	s.memBase = nextID
	s.memLen = 0
	s.mem = s.hooks.NewMem(nextID)
}

// Insert assigns the next id, applies add to the memtable payload under
// the mutation lock, and seals the memtable when it reaches the
// configured size. It reports the assigned id and whether a seal
// happened (the caller's cue to consider compaction).
func (s *Store) Insert(add func(id int, mem any)) (id int, sealed bool) {
	s.mu.Lock()
	id = s.nextID
	s.nextID++
	add(id, s.mem)
	s.memLen++
	if s.memLen >= s.cfg.memtableSize() {
		s.sealLocked()
		sealed = true
	}
	s.mu.Unlock()
	s.epoch.Add(1)
	return id, sealed
}

// sealLocked freezes the memtable into an immutable segment and starts a
// fresh one. Callers hold s.mu.
func (s *Store) sealLocked() {
	frozen := &Segment{
		Base:    s.memBase,
		N:       s.memLen,
		Payload: s.hooks.Snapshot(s.mem, s.memLen, true),
	}
	v := s.view.Load()
	segs := make([]*Segment, len(v.Segments)+1)
	copy(segs, v.Segments)
	segs[len(v.Segments)] = frozen
	s.view.Store(&View{Gen: v.Gen + 1, Segments: segs, Tombs: v.Tombs})
	s.memBase = s.nextID
	s.memLen = 0
	s.mem = s.hooks.NewMem(s.memBase)
	s.seals.Add(1)
}

// Seal freezes a non-empty memtable regardless of size (for tests and
// deterministic shutdowns). It reports whether anything was sealed.
func (s *Store) Seal() bool {
	s.mu.Lock()
	if s.memLen == 0 {
		s.mu.Unlock()
		return false
	}
	s.sealLocked()
	s.mu.Unlock()
	s.epoch.Add(1)
	return true
}

// Delete tombstones id. It reports false for ids never assigned, already
// tombstoned, or already resolved away by compaction — the id no longer
// (or never did) exist.
func (s *Store) Delete(id int) bool {
	s.mu.Lock()
	if id < 0 || id >= s.nextID {
		s.mu.Unlock()
		return false
	}
	v := s.view.Load()
	if v.Tombs.Has(id) {
		s.mu.Unlock()
		return false
	}
	// Ids at or above the memtable base live in the memtable; below it
	// the id must still be present in a sealed segment (a miss means an
	// earlier delete was compacted away).
	if id < s.memBase && !segmentsContain(v.Segments, id) {
		s.mu.Unlock()
		return false
	}
	s.view.Store(&View{Gen: v.Gen + 1, Segments: v.Segments, Tombs: v.Tombs.With(id)})
	s.mu.Unlock()
	s.epoch.Add(1)
	return true
}

// Contains reports whether id is currently visible (present and not
// tombstoned).
func (s *Store) Contains(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= s.nextID {
		return false
	}
	v := s.view.Load()
	if v.Tombs.Has(id) {
		return false
	}
	return id >= s.memBase || segmentsContain(v.Segments, id)
}

// View returns the current immutable view, lock-free. It excludes the
// memtable; use Read for a full consistent cut.
func (s *Store) View() *View { return s.view.Load() }

// Read takes a consistent cut: the immutable view plus an O(1) frozen
// snapshot of the memtable, captured together under the mutation lock so
// no seal or delete can fall between them.
func (s *Store) Read() Cut {
	s.mu.Lock()
	v := s.view.Load()
	var mem *Segment
	if s.memLen > 0 {
		mem = &Segment{Base: s.memBase, N: s.memLen, Payload: s.hooks.Snapshot(s.mem, s.memLen, false)}
	}
	nextID := s.nextID
	s.mu.Unlock()

	segs := v.Segments
	if mem != nil {
		segs = make([]*Segment, len(v.Segments)+1)
		copy(segs, v.Segments)
		segs[len(v.Segments)] = mem
	}
	return Cut{Gen: v.Gen, Segments: segs, Tombs: v.Tombs, NextID: nextID}
}

// Epoch returns the logical-state counter: it increases with every
// insert, delete, seal and compaction, so equal epochs imply an identical
// visible dataset — the invalidation key for query caches.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// NextID returns the high-water mark: the id the next insert will get.
func (s *Store) NextID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// Stats snapshots the store's gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	v := s.view.Load()
	st := Stats{
		Epoch:       s.epoch.Load(),
		Gen:         v.Gen,
		Segments:    len(v.Segments),
		MemtableLen: s.memLen,
		Tombstones:  v.Tombs.Len(),
		NextID:      s.nextID,
		Seals:       s.seals.Load(),
		Compactions: s.compactions.Load(),
	}
	total := s.memLen
	for _, sg := range v.Segments {
		total += sg.N
	}
	st.Live = total - st.Tombstones
	s.mu.Unlock()
	return st
}

// ShouldCompact reports whether the sealed-segment count reached the
// configured trigger (advisory; Compact itself runs whenever asked).
func (s *Store) ShouldCompact() bool {
	after := s.cfg.compactAfter()
	if after < 0 {
		return false
	}
	return len(s.view.Load().Segments) >= after
}

// Compact merges every currently sealed segment into one. The merge
// callback runs outside any lock with an immutable input slice and the
// tombstone set frozen at compaction start; it must return a segment
// holding exactly the non-tombstoned entries of the inputs in ascending
// id order (nil when none survive). Segments sealed while the merge runs
// are spliced in unchanged behind the merged output, and only tombstones
// the merge resolved are removed — ones that arrived mid-merge stay until
// the next cycle. Compaction is single-flight: a call that finds one
// already running returns false immediately.
func (s *Store) Compact(merge func(segs []*Segment, tombs *Tombstones) *Segment) bool {
	if !s.compacting.CompareAndSwap(false, true) {
		return false
	}
	defer s.compacting.Store(false)

	v := s.view.Load()
	inputs := v.Segments
	if len(inputs) == 0 {
		return false
	}

	merged := merge(inputs, v.Tombs)
	resolved := resolvedIDs(inputs, v.Tombs)

	s.mu.Lock()
	cur := s.view.Load()
	segs := make([]*Segment, 0, len(cur.Segments)-len(inputs)+1)
	if merged != nil && merged.N > 0 {
		segs = append(segs, merged)
	}
	segs = append(segs, cur.Segments[len(inputs):]...)
	s.view.Store(&View{Gen: cur.Gen + 1, Segments: segs, Tombs: cur.Tombs.Without(resolved)})
	s.mu.Unlock()
	s.epoch.Add(1)
	s.compactions.Add(1)
	return true
}

// segmentsContain reports whether id falls inside one of the (ascending,
// non-overlapping) segments.
func segmentsContain(segs []*Segment, id int) bool {
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid].N == 0 || segs[mid].MaxID() < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(segs) {
		return false
	}
	_, ok := segs[lo].Find(id)
	return ok
}

// resolvedIDs lists the tombstoned ids that live inside segs — the ones a
// merge over segs drops.
func resolvedIDs(segs []*Segment, tombs *Tombstones) []int {
	if tombs.Len() == 0 {
		return nil
	}
	var out []int
	for _, id := range tombs.IDs() {
		if segmentsContain(segs, id) {
			out = append(out, id)
		}
	}
	return out
}
