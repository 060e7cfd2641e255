package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sort"

	"treesim/internal/datagen"
	"treesim/internal/dblp"
	"treesim/internal/search"
	"treesim/internal/tree"
)

// opKind is one request type of the serving API.
type opKind uint8

const (
	opKNN    opKind = iota // POST /v1/knn
	opRange                // POST /v1/range
	opInsert               // POST /v1/trees
	opDelete               // DELETE /v1/trees/{id}
)

func (k opKind) String() string { return [...]string{"knn", "range", "insert", "delete"}[k] }

// query reports whether the op is a similarity query (the read class the
// query_* metrics cover).
func (k opKind) query() bool { return k == opKNN || k == opRange }

// write reports whether the op changes the index.
func (k opKind) write() bool { return k == opInsert || k == opDelete }

// request is one generated operation. Bodies are encoded when the list is
// built, so a client's timed round trip holds no marshalling of its own.
type request struct {
	kind opKind
	tree string // canonical text of the query tree or the inserted tree
	arg  int    // k for knn, tau for range
	body []byte // JSON request body (nil for delete: the victim is picked at run time)
}

func (r request) path() string {
	return [...]string{"/v1/knn", "/v1/range", "/v1/trees", ""}[r.kind]
}

func newRequest(kind opKind, text string, arg int) request {
	var v any
	switch kind {
	case opKNN:
		v = struct {
			Tree string `json:"tree"`
			K    int    `json:"k"`
		}{text, arg}
	case opRange:
		v = struct {
			Tree string `json:"tree"`
			Tau  int    `json:"tau"`
		}{text, arg}
	case opInsert:
		v = struct {
			Tree string `json:"tree"`
		}{text}
	case opDelete:
		return request{kind: kind}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return request{kind: kind, tree: text, arg: arg, body: body}
}

// inputs is everything a run feeds the server, all derived from the seed.
type inputs struct {
	base    []*tree.Tree // the dataset the index is built over
	reqs    []request    // the request list, in the order the closed-loop client sends it; one pass walks all of it
	victims []int        // delete victims in order: a seeded permutation of the base ids (nil: the run deletes what it inserted)
}

// workload is one traffic mix over one dataset shape. The names are fixed:
// later issues cite them.
type workload struct {
	name     string
	shape    string // dataset and traffic, for the report
	memtable int    // search.WithMemtableSize; 0 keeps the store default
	traced   int    // most requests the traced pass executes
	oracle   int    // queries checked against a brute-force scan, before timing and again after the crash-restart
	generate func(seed int64, scale float64) *inputs
}

// kthDistance is the edit distance from q to its k-th nearest tree of the
// index, or cutoff+1 when that is farther than cutoff: what decides how
// much of the dataset a k-NN query has to verify. The generators hold a
// list's share of well and weakly pruned queries fixed with it.
func kthDistance(ix *search.Index, q *tree.Tree, k, cutoff int) int {
	res, _, err := ix.Range(context.Background(), q, cutoff)
	if err != nil {
		panic(err) // the context is never cancelled
	}
	if len(res) < k {
		return cutoff + 1
	}
	dists := make([]int, len(res))
	for i, r := range res {
		dists[i] = r.Dist
	}
	sort.Ints(dists)
	return dists[k-1]
}

// scaled shrinks a full-scale count for the smoke test, keeping at least
// floor.
func scaled(n int, scale float64, floor int) int {
	if s := int(float64(n) * scale); s > floor {
		return s
	}
	return floor
}

// clusterSize is how many trees share one seed tree in a synthetic
// dataset.
const clusterSize = 10

// synthetic builds a datagen workload. The dataset is n/10 clusters: a
// seed tree and nine trees derived from it. (Generator.Dataset chains its
// derivations, and along a chain the tree size drifts like a random walk;
// with the few long chains of the historical shapes the dataset's size,
// and with it every metric, swung by tens of percent from seed to seed.)
// The queries are seeded picks of dataset members with 0–3 random edits
// (so an identical-tree shortcut cannot dominate), cycling through ops.
// With maxKth > 0 a k-NN query is kept only if its k-th neighbour is
// within that distance: see serve_small.
// Spread evenly among them are the list's writes, so that the write path
// is measured, and the durability check has acknowledged writes to find,
// on every dataset shape: alternately the insert of a freshly derived
// tree and the delete of the oldest tree the run inserted, so the live
// dataset keeps its size however many passes walk the list. A write is
// timed after a query, as mixed_rw's are: straight after another write it
// is a third faster, and a p50 over both kinds sits in the gap.
func synthetic(spec string, n, queries, writes, maxKth int, ops []request) func(int64, float64) *inputs {
	return func(seed int64, scale float64) *inputs {
		defer allCores()()
		sp, err := datagen.ParseSpec(spec)
		if err != nil {
			panic(err) // the specs are literals of this file
		}
		g := datagen.New(sp, seed)
		in := &inputs{}
		// Of two candidate seed trees a cluster takes the one that brings
		// the mean seed size closer to the spec's: what a query costs grows
		// with the square of the tree size, and the chance mean of 200
		// clusters moved serve_small's latencies by 8 % from seed to seed.
		nodes, target := 0, 0.0
		for n := scaled(n, scale, 60); len(in.base) < n; {
			s, alt := g.Seed(), g.Seed()
			target += sp.SizeMean
			if math.Abs(float64(nodes+alt.Size())-target) < math.Abs(float64(nodes+s.Size())-target) {
				s = alt
			}
			nodes += s.Size()
			in.base = append(in.base, s)
			for i := 1; i < clusterSize; i++ {
				in.base = append(in.base, g.Derive(s))
			}
		}
		rng := rand.New(rand.NewSource(seed*7919 + 1))
		pick := func() *tree.Tree { return in.base[rng.Intn(len(in.base))] }
		var ix *search.Index
		if maxKth > 0 {
			ix = search.NewIndex(in.base, search.NewBiBranch())
		}
		queries, writes := scaled(queries, scale, 40), scaled(writes, scale, 8)
		for i := 0; i < queries; i++ {
			op := ops[i%len(ops)]
			q := g.RandomEdits(pick(), rng.Intn(4))
			// The edits may have deleted a one-node tree, and the server
			// refuses empty queries.
			for q.IsEmpty() || op.kind == opKNN && maxKth > 0 && kthDistance(ix, q, op.arg, maxKth) > maxKth {
				q = g.RandomEdits(pick(), rng.Intn(4))
			}
			in.reqs = append(in.reqs, newRequest(op.kind, q.String(), op.arg))
			if w := (i + 1) * writes / queries; w > i*writes/queries {
				if w%2 == 1 {
					in.reqs = append(in.reqs, newRequest(opInsert, g.Derive(pick()).String(), 0))
				} else {
					in.reqs = append(in.reqs, newRequest(opDelete, "", 0))
				}
			}
		}
		return in
	}
}

// mixedRW builds the DBLP read/write mix: 60 % k-NN (k=10) on variants of
// dataset records, 30 % inserts of new records and variants, 10 % deletes
// of base records, in a fixed interleave in which every write follows a
// query.
//
// What a k-NN query costs here is decided by the distance of its tenth
// neighbour: within 3 edits the filter leaves a few hundred candidates
// (6 ms), at 4 a sixth of the dataset (13 ms and up), beyond that a third
// of it and more (20–80 ms). Seeds differ in how many of their records
// have ten near-duplicates — the near class is 34–49 % of random picks —
// so with plain picks the p50 jumped between the classes (7–14 ms) and
// the throughput followed the heavy ones. The list therefore holds the
// three classes in fixed shares, 40 : 30 : 30, close to the natural mix.
func mixedRW(seed int64, scale float64) *inputs {
	defer allCores()()
	g := dblp.New(seed)
	in := &inputs{base: g.Dataset(scaled(10000, scale, 300))}
	ix := search.NewIndex(in.base, search.NewBiBranch())
	rng := rand.New(rand.NewSource(seed*7919 + 2))
	pick := func() *tree.Tree { return in.base[rng.Intn(len(in.base))] }
	const k = 10
	pattern := [...]opKind{opKNN, opInsert, opKNN, opInsert, opKNN, opDelete, opKNN, opInsert, opKNN, opKNN}
	ops := scaled(160, scale, 100) / len(pattern) * len(pattern)
	nq := ops * 6 / 10
	quota := [3]int{nq * 4 / 10, nq * 3 / 10}
	quota[2] = nq - quota[0] - quota[1]
	var queries []request
	for tries := 0; len(queries) < nq; tries++ {
		q := g.Variant(pick())
		class := max(kthDistance(ix, q, k, 4), 3) - 3
		if quota[class] <= 0 && tries < 20*nq {
			continue // past that, a class this dataset hardly has stays short
		}
		quota[class]--
		queries = append(queries, newRequest(opKNN, q.String(), k))
	}
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	for i := 0; i < ops; i++ {
		switch kind := pattern[i%len(pattern)]; {
		case kind == opKNN:
			in.reqs, queries = append(in.reqs, queries[0]), queries[1:]
		case kind == opDelete:
			in.reqs = append(in.reqs, newRequest(opDelete, "", 0))
		case rng.Intn(2) == 0:
			in.reqs = append(in.reqs, newRequest(opInsert, g.Variant(pick()).String(), 0))
		default:
			in.reqs = append(in.reqs, newRequest(opInsert, g.Record().String(), 0))
		}
	}
	in.victims = rng.Perm(len(in.base))
	return in
}

var workloads = []*workload{
	{
		name:   "serve_small",
		shape:  "N{3,1}N{16,5}L8D0.1, n=2000 in clusters of 10; closed loop, alternating /v1/knn k=5 (well pruned) and /v1/range tau=3",
		traced: 500, oracle: 40,
		// Only well-pruned k-NN queries: the fifth neighbour within 4 edits
		// (three picks in four). Beyond that BiBranch stops pruning 16-node
		// trees, a query verifies the whole dataset and takes 10–55 ms where
		// the others take 2: 5–10 % of the picks, depending on the seed,
		// were half of the list's time, and put its p90 on a knee. This list
		// is for short requests; knn_bigtree and mixed_rw have the others.
		generate: synthetic("N{3,1}N{16,5}L8D0.1", 2000, 1200, 48, 4,
			[]request{{kind: opKNN, arg: 5}, {kind: opRange, arg: 3}}),
	},
	{
		name:   "range_scan",
		shape:  "N{4,0.5}N{50,2}L8D0.05 (paper default), n=8000 in clusters of 10; closed loop, /v1/range tau=3",
		traced: 100, oracle: 1,
		generate: synthetic("N{4,0.5}N{50,2}L8D0.05", 8000, 100, 48, 0,
			[]request{{kind: opRange, arg: 3}}),
	},
	{
		name:   "knn_bigtree",
		shape:  "N{2,0.5}N{150,5}L8D0.05, n=500 in clusters of 10; closed loop, /v1/knn k=5",
		traced: 100, oracle: 2,
		generate: synthetic("N{2,0.5}N{150,5}L8D0.05", 500, 80, 48, 0,
			[]request{{kind: opKNN, arg: 5}}),
	},
	{
		name:     "mixed_rw",
		shape:    "dblp records, n=10000, memtable 64; closed loop, 60% /v1/knn k=10 in three difficulty classes, 30% POST /v1/trees, 10% DELETE /v1/trees/{id}",
		memtable: 64, traced: 100, oracle: 20,
		generate: mixedRW,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
