package branch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization of a branch space and its dataset profiles, so a
// built index can be persisted and reloaded without re-profiling the
// dataset. The format is versioned and fully validated on read:
//
//	magic "TSBB1\x00"
//	u32 q
//	u32 number of branch keys, then each key as (u32 len, bytes)
//	u32 number of profiles, then each profile as:
//	    u32 tree size, u32 nnz,
//	    nnz × (u32 dim, u32 count, count × (i32 pre, i32 post))
//
// All integers are little-endian.

var codecMagic = [6]byte{'T', 'S', 'B', 'B', '1', 0}

// Write serializes the space and the given profiles (which must belong to
// the space).
func Write(w io.Writer, s *Space, ps []*Profile) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(codecMagic[:]); err != nil {
		return err
	}
	u32 := func(v int) error { return binary.Write(bw, binary.LittleEndian, uint32(v)) }

	s.mu.RLock()
	keys := s.keys
	s.mu.RUnlock()

	if err := u32(s.q); err != nil {
		return err
	}
	if err := u32(len(keys)); err != nil {
		return err
	}
	for _, k := range keys {
		if err := u32(len(k)); err != nil {
			return err
		}
		if _, err := bw.WriteString(k); err != nil {
			return err
		}
	}

	if err := u32(len(ps)); err != nil {
		return err
	}
	for i, p := range ps {
		if p.f.space != s {
			return fmt.Errorf("branch: profile %d belongs to a different space", i)
		}
		if err := u32(p.Size); err != nil {
			return err
		}
		if err := u32(p.NonZero()); err != nil {
			return err
		}
		for ei, d := range p.Dims() {
			if err := u32(int(d)); err != nil {
				return err
			}
			if err := u32(p.Count(ei)); err != nil {
				return err
			}
			for _, occ := range p.Occurrences(ei) {
				if err := binary.Write(bw, binary.LittleEndian, occ.Pre); err != nil {
					return err
				}
				if err := binary.Write(bw, binary.LittleEndian, occ.Post); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a space and its profiles, validating structure.
func Read(r io.Reader) (*Space, []*Profile, error) {
	br := bufio.NewReader(r)
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("branch: reading magic: %w", err)
	}
	if magic != codecMagic {
		return nil, nil, fmt.Errorf("branch: bad magic %q", magic)
	}
	u32 := func() (int, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return int(v), err
	}

	q, err := u32()
	if err != nil {
		return nil, nil, err
	}
	if q < MinQ || q > 16 {
		return nil, nil, fmt.Errorf("branch: implausible q=%d", q)
	}
	nKeys, err := u32()
	if err != nil {
		return nil, nil, err
	}
	s := NewSpace(q)
	for i := 0; i < nKeys; i++ {
		kl, err := u32()
		if err != nil {
			return nil, nil, err
		}
		if kl > 1<<20 {
			return nil, nil, fmt.Errorf("branch: key %d implausibly long (%d)", i, kl)
		}
		buf := make([]byte, kl)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, nil, err
		}
		if _, ok := rootLabel(string(buf)); !ok {
			return nil, nil, fmt.Errorf("branch: key %d does not start with a label", i)
		}
		if got := s.intern(buf); int(got) != i {
			return nil, nil, fmt.Errorf("branch: duplicate key %d in stream", i)
		}
	}

	nProfiles, err := u32()
	if err != nil {
		return nil, nil, err
	}
	// Untrusted counts never size an allocation directly: the flat store
	// grows as bytes actually arrive (a lying length prefix then dies on
	// EOF or a validation check, having cost only a small starter
	// capacity), and counts with a structural bound are checked against it.
	f := &flat{space: s, offs: []uint32{0}}
	views := make([]Profile, 0, capAlloc(nProfiles))
	for pi := 0; pi < nProfiles; pi++ {
		size, err := u32()
		if err != nil {
			return nil, nil, err
		}
		if size > maxTreeSize {
			return nil, nil, fmt.Errorf("branch: profile %d implausibly large (%d nodes)", pi, size)
		}
		nnz, err := u32()
		if err != nil {
			return nil, nil, err
		}
		if nnz > size {
			// Each distinct branch occurs at least once and the counts
			// sum to size, so nnz beyond size is corruption.
			return nil, nil, fmt.Errorf("branch: profile %d has %d branch kinds but only %d nodes", pi, nnz, size)
		}
		lo, first := len(f.dims), len(f.occ)
		for ei := 0; ei < nnz; ei++ {
			dim, err := u32()
			if err != nil {
				return nil, nil, err
			}
			if dim >= nKeys {
				return nil, nil, fmt.Errorf("branch: profile %d references unknown dim %d", pi, dim)
			}
			if ei > 0 && Dim(dim) <= f.dims[len(f.dims)-1] {
				return nil, nil, fmt.Errorf("branch: profile %d: dimensions not strictly ascending at index %d", pi, ei)
			}
			count, err := u32()
			if err != nil {
				return nil, nil, err
			}
			if count == 0 || count > size {
				return nil, nil, fmt.Errorf("branch: profile %d dim %d has bad count %d", pi, dim, count)
			}
			f.dims = append(f.dims, Dim(dim))
			for oi := 0; oi < count; oi++ {
				var o Occurrence
				if err := binary.Read(br, binary.LittleEndian, &o.Pre); err != nil {
					return nil, nil, err
				}
				if err := binary.Read(br, binary.LittleEndian, &o.Post); err != nil {
					return nil, nil, err
				}
				f.occ = append(f.occ, o)
			}
			f.offs = append(f.offs, uint32(len(f.occ)))
		}
		if len(f.occ) > math.MaxUint32 {
			return nil, nil, fmt.Errorf("branch: more than %d occurrences in one stream", uint32(math.MaxUint32))
		}
		if sum := len(f.occ) - first; sum != size {
			return nil, nil, fmt.Errorf("branch: profile %d counts sum to %d, size says %d", pi, sum, size)
		}
		views = append(views, Profile{Size: size, f: f, lo: uint32(lo), hi: uint32(len(f.dims))})
	}
	f.clip()
	ps := make([]*Profile, len(views))
	for i := range views {
		ps[i] = &views[i]
	}
	return s, ps, nil
}

// maxTreeSize mirrors the tree codec's 1<<26 cap: profiles claiming more
// nodes than any loadable tree are corrupt.
const maxTreeSize = 1 << 26

// capAlloc bounds the starter capacity taken from an untrusted count, so
// a lying length prefix cannot demand a huge allocation up front.
func capAlloc(n int) int { return min(n, 4096) }
