// Package treesim is a library for similarity evaluation on tree-structured
// data, implementing Yang, Kalnis and Tung, "Similarity Evaluation on
// Tree-structured Data" (SIGMOD 2005).
//
// The core idea: a rooted, ordered, labeled tree is transformed into a
// sparse numeric vector counting its *binary branches* — the one-level
// branch structures of the tree's left-child/right-sibling binary
// representation. The L1 distance of two such vectors (the binary branch
// distance) is computable in O(|T1|+|T2|) and lower-bounds the tree edit
// distance scaled by a constant:
//
//	BDist_q(T1,T2) ≤ [4(q−1)+1] · EDist(T1,T2)
//
// so similarity queries under the (expensive) tree edit distance can run in
// a filter-and-refine loop that prunes most candidates with the cheap
// bound and computes the exact Zhang–Shasha distance only for survivors —
// with exact results guaranteed.
//
// # Quick start
//
//	t1 := treesim.MustParseTree("a(b(c,d),b(c,d),e)")
//	t2 := treesim.MustParseTree("a(b(c,d,b(e)),c,d,e)")
//	d := treesim.EditDistance(t1, t2)                 // 3
//
//	space := treesim.NewBranchSpace(2)
//	p1, p2 := space.Profile(t1), space.Profile(t2)
//	bd := treesim.BDist(p1, p2)                       // 9 → EDist ≥ 2
//
//	ix := treesim.NewIndex(dataset, treesim.NewBiBranchFilter())
//	top5, stats, err := ix.KNN(ctx, query, 5)
//
// A query runs on its caller's goroutine, filter to refine, so its answer
// and every counter in its Stats but the two times are the same on every
// run; an Index serves concurrent queries, inserts and deletes.
//
// See the examples directory for XML search, RNA structure retrieval,
// clustering and similarity joins, and cmd/experiments for the paper's
// full evaluation suite.
package treesim

import (
	"fmt"
	"io"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/dataset"
	"treesim/internal/dblp"
	"treesim/internal/editdist"
	"treesim/internal/join"
	"treesim/internal/rna"
	"treesim/internal/search"
	"treesim/internal/tree"
	"treesim/internal/xmltree"
)

// Trees.

// Tree is a rooted, ordered, labeled tree.
type Tree = tree.Tree

// Node is a node of a Tree; children are ordered left to right.
type Node = tree.Node

// NewTree returns a tree rooted at root (nil means the empty tree).
func NewTree(root *Node) *Tree { return tree.New(root) }

// NewNode returns a node with the given label and children.
func NewNode(label string, children ...*Node) *Node { return tree.NewNode(label, children...) }

// ParseTree decodes a tree from the canonical text format, e.g.
// "a(b(c,d),e)"; labels with special characters are single-quoted.
func ParseTree(s string) (*Tree, error) { return tree.Parse(s) }

// MustParseTree is ParseTree that panics on malformed input.
func MustParseTree(s string) *Tree { return tree.MustParse(s) }

// Edit distance.

// CostModel assigns costs to relabel/insert/delete operations.
type CostModel = editdist.CostModel

// UnitCost charges 1 per operation — the paper's model, under which the
// edit distance is a metric.
type UnitCost = editdist.UnitCost

// EditOption configures one EditDistance or EditDistanceWithin call; see
// WithEditCost and WithEditCutoff.
type EditOption = editdist.Option

// EditMetrics reports what one distance computation cost (DP cells,
// pre-check/abort flags); see WithEditMetrics.
type EditMetrics = editdist.Metrics

// WithEditCost sets the cost model of an edit-distance computation (nil
// keeps the paper's unit costs).
func WithEditCost(m CostModel) EditOption { return editdist.WithCost(m) }

// WithEditCutoff bounds an edit-distance computation: the result is exact
// whenever it is ≤ cutoff and otherwise only guaranteed to exceed it.
func WithEditCutoff(cutoff int) EditOption { return editdist.WithCutoff(cutoff) }

// WithEditMetrics directs the computation's cost accounting into *m.
func WithEditMetrics(m *EditMetrics) EditOption { return editdist.WithMetrics(m) }

// EditDistance returns the tree edit distance (Zhang–Shasha), unit-cost by
// default:
//
//	d := treesim.EditDistance(t1, t2)
//	d := treesim.EditDistance(t1, t2, treesim.WithEditCost(c))
func EditDistance(t1, t2 *Tree, opts ...EditOption) int { return editdist.Distance(t1, t2, opts...) }

// EditDistanceWithin decides whether the edit distance is at most cutoff,
// spending as little work as the decision allows (O(n) pre-checks, the
// banded sequence bound, banded DP, early abandoning). It returns the
// exact distance and true when within, or a certified lower bound >
// cutoff and false when not.
func EditDistanceWithin(t1, t2 *Tree, cutoff int, opts ...EditOption) (int, bool) {
	return editdist.DistanceWithin(t1, t2, cutoff, opts...)
}

// ConstrainedEditDistance returns Zhang's constrained edit distance
// (Pattern Recognition 1995): an O(|T1|·|T2|) metric that upper-bounds the
// unrestricted edit distance by restricting mappings so separate subtrees
// map to separate subtrees.
func ConstrainedEditDistance(t1, t2 *Tree) int { return editdist.ConstrainedDistance(t1, t2) }

// Binary branch embedding (the paper's contribution).

// BranchSpace interns the q-level binary branches of a dataset into vector
// dimensions; profiles from one space are mutually comparable.
type BranchSpace = branch.Space

// BranchProfile is a tree's branch vector plus positional information.
type BranchProfile = branch.Profile

// NewBranchSpace returns a branch space at level q ≥ 2 (q = 2 is the
// two-level binary branch of the paper's Definition 2).
func NewBranchSpace(q int) *BranchSpace { return branch.NewSpace(q) }

// BDist returns the binary branch distance — the L1 distance of the branch
// vectors, computed in O(|T1|+|T2|).
func BDist(a, b *BranchProfile) int { return branch.BDist(a, b) }

// BranchFactor returns 4(q−1)+1, the per-operation bound of Theorems
// 3.2/3.3: BDist_q ≤ BranchFactor(q)·EDist.
func BranchFactor(q int) int { return branch.Factor(q) }

// EditLowerBound converts a q-level branch distance into an edit-distance
// lower bound: ceil(bdist/BranchFactor(q)).
func EditLowerBound(bdist, q int) int { return branch.EditLowerBound(bdist, q) }

// PosBDist returns the positional binary branch distance at positional
// range pr (Definition 6): like BDist, but occurrences of a branch match
// only when their preorder and postorder positions are within pr.
func PosBDist(a, b *BranchProfile, pr int) int { return branch.PosBDist(a, b, pr) }

// SearchLBound returns the optimistic positional lower bound on the edit
// distance (Section 4.3) — always at least EditLowerBound(BDist(a,b), q).
func SearchLBound(a, b *BranchProfile) int { return branch.SearchLBound(a, b) }

// Similarity search.

// Index is a similarity-searchable tree collection (filter-and-refine).
type Index = search.Index

// Result is one similarity query answer: dataset position and exact
// distance.
type Result = search.Result

// Stats reports what a query cost (verified count, filter/refine time).
type Stats = search.Stats

// Explain is the per-query filter-quality analysis (see WithExplain).
type Explain = search.Explain

// IndexOption configures NewIndex and LoadIndex; see WithCostModel,
// WithMemtableSize and WithCompactionThreshold. A *BiBranchFilter is itself
// an IndexOption; the nil one selects the sequential scan.
type IndexOption = search.IndexOption

// QueryOption configures one KNN or Range call; see WithExplain.
type QueryOption = search.QueryOption

// NewIndex preprocesses a dataset once and returns a queryable index:
//
//	ix := treesim.NewIndex(ts, treesim.NewBiBranchFilter())
//	res, stats, err := ix.KNN(ctx, q, 5)
//
// With no filter option the index degenerates to the sequential scan;
// with no cost option it uses unit edit costs. A query runs on its
// caller's goroutine; an Index serves concurrent queries.
func NewIndex(ts []*Tree, opts ...IndexOption) *Index { return search.NewIndex(ts, opts...) }

// WithCostModel sets the refine stage's edit cost model. The filter is
// kept only for a model that reports every operation costs at least 1
// (a MinOpCost method); otherwise the index scans sequentially, which is
// exact for any non-negative costs.
func WithCostModel(m CostModel) IndexOption { return search.WithCostModel(m) }

// WithMemtableSize sets how many inserted trees the mutable memtable
// segment absorbs before it is sealed into an immutable segment
// (0 = default). Layout never changes results — only write amplification
// and per-query segment fan-out.
func WithMemtableSize(n int) IndexOption { return search.WithMemtableSize(n) }

// WithCompactionThreshold sets how many sealed segments accumulate before
// a background compaction merges them into one (0 = default, negative =
// never compact automatically; Compact still works).
func WithCompactionThreshold(n int) IndexOption { return search.WithCompactionThreshold(n) }

// WithExplain asks a query to produce its filter-quality analysis into
// *dst (set only on success).
func WithExplain(dst **Explain) QueryOption { return search.WithExplain(dst) }

// BiBranchFilter is the paper's filter: q-level binary branch vectors
// with, optionally, the positional lower bound. The nil *BiBranchFilter is
// the sequential scan.
type BiBranchFilter = search.BiBranch

// NewBiBranchFilter returns the paper's filter: two-level binary branches
// with the positional optimistic bound.
func NewBiBranchFilter() *BiBranchFilter { return search.NewBiBranch() }

// NewBiBranchFilterQ returns a binary branch filter at level q in [2, 16],
// optionally without the positional bound (plain ceil(BDist/factor)
// filtering). It panics outside that range, where no binary branch
// structure exists (Definition 2) or no snapshot could store the level.
func NewBiBranchFilterQ(q int, positional bool) *BiBranchFilter {
	if q < branch.MinQ || q > branch.MaxQ {
		panic(fmt.Sprintf("treesim: binary branch level q must be in [%d, %d] (got %d)", branch.MinQ, branch.MaxQ, q))
	}
	return &search.BiBranch{Q: q, Positional: positional}
}

// Similarity joins.

// JoinPair is one result of a similarity join.
type JoinPair = join.Pair

// JoinStats reports a join's pruning statistics.
type JoinStats = join.Stats

// JoinOptions tunes a similarity join.
type JoinOptions = join.Options

// SelfJoin returns every unordered pair of trees within edit distance tau,
// filter-and-refine accelerated and exact.
func SelfJoin(ts []*Tree, tau int, opts JoinOptions) ([]JoinPair, JoinStats) {
	return join.SelfJoin(ts, tau, opts)
}

// SimilarityJoin returns every pair (r ∈ rs, s ∈ ss) within edit distance
// tau.
func SimilarityJoin(rs, ss []*Tree, tau int, opts JoinOptions) ([]JoinPair, JoinStats) {
	return join.Join(rs, ss, tau, opts)
}

// Data sources.

// GeneratorSpec describes the paper's synthetic tree generator, e.g.
// parsed from "N{4,0.5}N{50,2}L8D0.05".
type GeneratorSpec = datagen.Spec

// ParseGeneratorSpec parses the paper's dataset notation.
func ParseGeneratorSpec(s string) (GeneratorSpec, error) { return datagen.ParseSpec(s) }

// GenerateDataset produces n synthetic trees from the spec using the given
// number of seed trees (mutation chains) and random seed.
func GenerateDataset(spec GeneratorSpec, n, seeds int, seed int64) []*Tree {
	return datagen.New(spec, seed).Dataset(n, seeds)
}

// GenerateDBLP produces n DBLP-like bibliographic record trees.
func GenerateDBLP(n int, seed int64) []*Tree { return dblp.New(seed).Dataset(n) }

// XMLOptions controls XML→tree conversion.
type XMLOptions = xmltree.Options

// ParseXML converts one XML document into a tree.
func ParseXML(r io.Reader, opts XMLOptions) (*Tree, error) { return xmltree.Parse(r, opts) }

// ParseXMLString converts an XML string into a tree.
func ParseXMLString(s string, opts XMLOptions) (*Tree, error) {
	return xmltree.ParseString(s, opts)
}

// DefaultXMLOptions includes element text as leaf labels.
func DefaultXMLOptions() XMLOptions { return xmltree.DefaultOptions() }

// RNAMolecule is an RNA sequence with dot-bracket secondary structure; its
// Tree method yields the structure tree used for similarity search.
type RNAMolecule = rna.Molecule

// Datasets and indexes on disk.

// SaveDataset writes trees in the native line format.
func SaveDataset(w io.Writer, ts []*Tree) error { return dataset.Save(w, ts) }

// LoadDataset reads trees in the native line format.
func LoadDataset(r io.Reader) ([]*Tree, error) { return dataset.Load(r) }

// SaveIndex serializes a BiBranch-filtered index: its filter
// configuration, its id high-water mark and its live trees with their
// ids. Branch vectors, postings, the segment layout and deleted trees are
// not written.
func SaveIndex(w io.Writer, ix *Index) error { return search.SaveIndex(w, ix) }

// LoadIndex reloads an index saved with SaveIndex as one segment over
// its live trees, profiled as NewIndex profiles a dataset; the next
// insert gets the id it would have got before the save. Options configure
// the loaded index like NewIndex's do.
func LoadIndex(r io.Reader, opts ...IndexOption) (*Index, error) {
	return search.LoadIndex(r, opts...)
}

// Edit scripts.

// EditOp is one step of an optimal edit script.
type EditOp = editdist.Op

// EditScriptResult is an optimal edit script: the minimum-cost operation
// sequence transforming one tree into another, with the underlying Tai
// mapping.
type EditScriptResult = editdist.Script

// EditScript backtraces the Zhang–Shasha dynamic program into an optimal
// unit-cost edit script from t1 to t2; its Cost equals EditDistance(t1,t2).
func EditScript(t1, t2 *Tree) *EditScriptResult { return editdist.EditScript(t1, t2) }
