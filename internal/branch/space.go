// Package branch implements the paper's primary contribution: the binary
// branch embedding of rooted, ordered, labeled trees.
//
// A q-level binary branch (Definition 5; Definition 2 is the q=2 case) is
// the perfect binary tree of height q−1 rooted at an original node u of the
// ε-normalized binary tree representation B(T), padded with ε below the
// leaves where necessary. Every tree T maps to a sparse vector BRV_q(T)
// counting the occurrences of each distinct branch (Definition 3); the L1
// distance of two such vectors is the (q-level) binary branch distance
// BDist_q (Definition 4), and
//
//	BDist_q(T1,T2) ≤ [4(q−1)+1] · EDist(T1,T2)   (Theorems 3.2 and 3.3)
//
// so ceil(BDist_q/[4(q−1)+1]) lower-bounds the unit-cost tree edit
// distance. The positional binary branch distance (Definition 6) tightens
// the bound further using preorder/postorder positions, and SearchLBound
// (Section 4.3) binary-searches the positional range for the best bound.
package branch

import (
	"slices"
	"strconv"
	"strings"
	"sync"
)

// MinQ is the smallest meaningful branch level. q=1 records single labels
// only (no structure); the paper starts at q=2. MaxQ is the largest level a
// filter is configured with or a snapshot stores: profiling costs 2^q per
// node, so a larger q is a mistake or damage, not a configuration.
const (
	MinQ = 2
	MaxQ = 16
)

// Factor returns the per-edit-operation bound 4(q−1)+1 of Theorem 3.3: one
// edit operation changes at most Factor(q) q-level binary branches. For
// q=2 this is the constant 5 of Theorem 3.2.
func Factor(q int) int { return 4*(q-1) + 1 }

// Dim identifies a dimension of the branch vector space: an interned binary
// branch.
type Dim uint32

// Label identifies a node label the space has seen at the root of a branch:
// interned in the order the branches' dimensions were.
type Label uint32

// Space is the alphabet Γ of q-level binary branches observed in a dataset.
// It interns each distinct branch into a dense vector dimension, so branch
// vectors of different trees are directly comparable. A Space is safe for
// concurrent use.
type Space struct {
	q  int
	mu sync.RWMutex
	// ids maps the encoded branch key to its dimension.
	ids map[string]Dim
	// keys lists the branch keys by dimension, for debugging/inspection.
	keys []string
	// root[d] is the label dimension d's branch is rooted at: the key's
	// first label. Every node roots exactly one branch (Definition 2), so a
	// tree's label histogram is its profile summed by root label. Roots
	// extends it to the dimensions interned since its last call.
	root []Label
	// labelIDs interns the root labels.
	labelIDs map[string]Label
}

// NewSpace returns an empty branch space at level q (q ≥ MinQ; q=2 is the
// two-level branch of Definition 2).
func NewSpace(q int) *Space {
	if q < MinQ {
		panic("branch: q must be >= 2")
	}
	return &Space{q: q, ids: make(map[string]Dim, 256)}
}

// Q returns the branch level of the space.
func (s *Space) Q() int { return s.q }

// Size returns |Γ|, the number of distinct branches interned so far.
func (s *Space) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.keys)
}

// intern returns the dimension of the branch encoded by key, assigning a
// fresh dimension on first sight. The key bytes are copied only then. The
// caller holds the write lock or is the only user the space has yet.
func (s *Space) intern(key []byte) Dim {
	if id, ok := s.ids[string(key)]; ok {
		return id
	}
	id := Dim(len(s.keys))
	k := string(key)
	s.keys = append(s.keys, k)
	s.ids[k] = id
	return id
}

// rootLabel returns the first label of an encoded branch key: the label of
// the node the branch is rooted at.
func rootLabel(key string) string {
	i := strings.IndexByte(key, ':')
	n, _ := strconv.Atoi(key[:i])
	return key[i+1 : i+1+n]
}

// Roots returns the root label of every dimension interned so far, indexed
// by Dim, and the number of labels among them: what an inverted file needs
// to sum its profiles into label histograms. It interns the root labels of
// the dimensions added since its last call, off the profiling path: only
// trees an inverted file is built over need their labels known (see
// QueryLabels). The slice is shared; callers must not modify it.
func (s *Space) Roots() (root []Label, labels int) {
	// Once a dataset is labelled, a query finds nothing new to intern.
	s.mu.RLock()
	if len(s.root) == len(s.keys) {
		root, labels = s.root, len(s.labelIDs)
		s.mu.RUnlock()
		return root, labels
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.labelIDs) == 0 {
		// A first call labels a whole indexed dataset: size the map for
		// it, about one label per two branches, rather than grow it.
		s.labelIDs = make(map[string]Label, len(s.keys)/2)
	}
	s.root = slices.Grow(s.root, len(s.keys)-len(s.root))
	for _, k := range s.keys[len(s.root):] {
		l := rootLabel(k)
		id, ok := s.labelIDs[l]
		if !ok {
			id = Label(len(s.labelIDs))
			s.labelIDs[l] = id
		}
		s.root = append(s.root, id)
	}
	return s.root, len(s.labelIDs)
}

// Key returns the encoded key of dimension d. It panics if d was never
// issued by this space.
func (s *Space) Key(d Dim) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keys[d]
}

// KeyLabels decodes an encoded branch key back into its label sequence
// (the preorder traversal of the branch window; ε appears as "ε").
func KeyLabels(key string) []string {
	var out []string
	for len(key) > 0 {
		i := strings.IndexByte(key, ':')
		n, err := strconv.Atoi(key[:i])
		if err != nil {
			panic("branch: corrupt key: " + key)
		}
		key = key[i+1:]
		out = append(out, key[:n])
		key = key[n:]
	}
	return out
}

// epsilon is the label a branch key gives the ε nodes that pad the binary
// tree representation into a full binary tree (Section 3.2).
const epsilon = "ε"

// appendLabel appends one label of a branch key to dst with a length
// prefix ("<len>:<label>"), so a key is unambiguous whatever bytes its
// labels contain.
func appendLabel(dst []byte, l string) []byte {
	dst = strconv.AppendInt(dst, int64(len(l)), 10)
	dst = append(dst, ':')
	return append(dst, l...)
}
