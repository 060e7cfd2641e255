// Command treesim runs similarity queries over tree datasets using the
// binary branch filter-and-refine engine.
//
//	treesim knn   -data data.trees -query 'a(b,c)' -k 5
//	treesim knn   -data data.trees -query-index 17 -k 10 -filter bibranch-q3
//	treesim knn   -data data.trees -query 'a(b,c)' -k 5 -explain
//	treesim range -data data.trees -query 'a(b,c)' -tau 3
//	treesim dist  'a(b(c,d),b(c,d),e)' 'a(b(c,d,b(e)),c,d,e)'
//	treesim stats -data data.trees
//
// Datasets are line-format files (see cmd/treegen) or directories of XML
// documents (-xml dir). Filters: bibranch (default; the paper's positional
// binary branch bound), bibranch-qN, none (the sequential scan);
// treesim-analyze replays the baselines the paper improves on, the
// histogram filter and the plain bound without positions (bibranch-nopos).
//
// For a long-lived server over the same engine, see cmd/treesimd.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"treesim/internal/branch"
	"treesim/internal/dataset"
	"treesim/internal/editdist"
	"treesim/internal/join"
	"treesim/internal/search"
	"treesim/internal/tree"
	"treesim/internal/xmltree"
)

// Every subcommand returns an error instead of exiting, so failures (a
// missing dataset file, an unparsable query) surface as a clear message
// and exit code 1 — and so tests can exercise the failure paths
// in-process.

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "knn":
		err = runKNN(os.Args[2:])
	case "range":
		err = runRange(os.Args[2:])
	case "dist":
		err = runDist(os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "index":
		err = runIndex(os.Args[2:])
	case "selfjoin":
		err = runSelfJoin(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "treesim: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: treesim <knn|range|dist|diff|stats|index|selfjoin> [flags]")
	fmt.Fprintln(os.Stderr, "run 'treesim <command> -h' for command flags")
	os.Exit(2)
}

// dataFlags registers the dataset/query flags shared by knn and range.
type dataFlags struct {
	data, xmlDir, query string
	index               string
	queryIndex          int
	filter              string
	q                   int
	fs                  *flag.FlagSet
}

func (d *dataFlags) register(fs *flag.FlagSet) {
	d.fs = fs
	fs.StringVar(&d.data, "data", "", "dataset file in line format")
	fs.StringVar(&d.xmlDir, "xml", "", "directory of XML documents (alternative to -data)")
	fs.StringVar(&d.index, "index", "", "saved index file (alternative to -data/-xml; see 'treesim index')")
	fs.StringVar(&d.query, "query", "", "query tree in canonical text format")
	fs.IntVar(&d.queryIndex, "query-index", -1, "use dataset tree i as the query")
	fs.StringVar(&d.filter, "filter", "bibranch", "filter: bibranch, bibranch-qN, none (with -index: replaces the file's filter when set, as -q does)")
	fs.IntVar(&d.q, "q", 2, "binary branch level of bibranch")
}

// buildIndex loads or builds the search index and resolves the query tree.
func (d *dataFlags) buildIndex() (*search.Index, *tree.Tree, error) {
	if d.index != "" {
		// The index file's filter answers unless -filter or -q is set.
		var opts []search.IndexOption
		explicit := false
		d.fs.Visit(func(fl *flag.Flag) { explicit = explicit || fl.Name == "filter" || fl.Name == "q" })
		if explicit {
			flt, err := search.ParseFilter(d.filter, d.q)
			if err != nil {
				return nil, nil, err
			}
			if flt == nil {
				return nil, nil, fmt.Errorf("filter %q cannot replace an index file's filter; scan from -data or -xml", d.filter)
			}
			opts = append(opts, flt)
		}
		f, err := os.Open(d.index)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		ix, err := search.LoadIndex(f, opts...)
		if err != nil {
			return nil, nil, err
		}
		q, err := d.resolveQuery(ix.Size())
		if err != nil {
			return nil, nil, err
		}
		if q == nil {
			var ok bool
			if q, ok = ix.TreeAt(d.queryIndex); !ok {
				return nil, nil, fmt.Errorf("-query-index %d: tree %d was deleted from the index", d.queryIndex, d.queryIndex)
			}
		}
		return ix, q, nil
	}
	ts, q, err := d.load()
	if err != nil {
		return nil, nil, err
	}
	f, err := search.ParseFilter(d.filter, d.q)
	if err != nil {
		return nil, nil, err
	}
	return search.NewIndex(ts, f), q, nil
}

// resolveQuery parses -query, or validates -query-index against a dataset
// of n trees (returning nil, nil to mean "use tree -query-index").
func (d *dataFlags) resolveQuery(n int) (*tree.Tree, error) {
	switch {
	case d.query != "":
		q, err := tree.Parse(d.query)
		if err != nil {
			return nil, fmt.Errorf("bad -query: %w", err)
		}
		return q, nil
	case d.queryIndex >= 0 && d.queryIndex < n:
		return nil, nil
	default:
		return nil, fmt.Errorf("need -query or a valid -query-index (0..%d)", n-1)
	}
}

// loadData loads the dataset from -data or -xml.
func (d *dataFlags) loadData() ([]*tree.Tree, error) {
	var ts []*tree.Tree
	var err error
	switch {
	case d.data != "":
		ts, err = dataset.LoadFile(d.data)
	case d.xmlDir != "":
		ts, _, err = dataset.LoadXMLDir(d.xmlDir, xmltree.DefaultOptions())
	default:
		err = fmt.Errorf("need -data or -xml")
	}
	if err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("dataset is empty")
	}
	return ts, nil
}

func (d *dataFlags) load() ([]*tree.Tree, *tree.Tree, error) {
	ts, err := d.loadData()
	if err != nil {
		return nil, nil, err
	}
	q, err := d.resolveQuery(len(ts))
	if err != nil {
		return nil, nil, err
	}
	if q == nil {
		q = ts[d.queryIndex]
	}
	return ts, q, nil
}

func runKNN(args []string) error {
	fs := flag.NewFlagSet("knn", flag.ExitOnError)
	var df dataFlags
	df.register(fs)
	k := fs.Int("k", 5, "number of nearest neighbors")
	explain := fs.Bool("explain", false, "print the query's filter-quality analysis (bound distribution, false positives, tightness)")
	fs.Parse(args)

	start := time.Now()
	ix, q, err := df.buildIndex()
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	var ex *search.Explain
	var opts []search.QueryOption
	if *explain {
		opts = append(opts, search.WithExplain(&ex))
	}
	res, stats, err := ix.KNN(context.Background(), q, *k, opts...)
	if err != nil {
		return err
	}

	fmt.Printf("index: %d trees, filter %s, ready in %v\n", ix.Size(), ix.Filter().Name(), buildTime.Round(time.Millisecond))
	fmt.Printf("query: %s\n", q)
	fmt.Printf("stats: %s\n", stats)
	if ex != nil {
		fmt.Print(ex.String())
	}
	for rank, r := range res {
		fmt.Printf("%3d. dist=%d  id=%d  %s\n", rank+1, r.Dist, r.ID, ix.Tree(r.ID))
	}
	return nil
}

func runRange(args []string) error {
	fs := flag.NewFlagSet("range", flag.ExitOnError)
	var df dataFlags
	df.register(fs)
	tau := fs.Int("tau", 2, "range radius (edit distance)")
	explain := fs.Bool("explain", false, "print the query's filter-quality analysis (bound distribution, false positives, tightness)")
	fs.Parse(args)

	ix, q, err := df.buildIndex()
	if err != nil {
		return err
	}
	var ex *search.Explain
	var opts []search.QueryOption
	if *explain {
		opts = append(opts, search.WithExplain(&ex))
	}
	res, stats, err := ix.Range(context.Background(), q, *tau, opts...)
	if err != nil {
		return err
	}

	fmt.Printf("index: %d trees, filter %s\n", ix.Size(), ix.Filter().Name())
	fmt.Printf("query: %s (tau=%d)\n", q, *tau)
	fmt.Printf("stats: %s\n", stats)
	if ex != nil {
		fmt.Print(ex.String())
	}
	for _, r := range res {
		fmt.Printf("dist=%d  id=%d  %s\n", r.Dist, r.ID, ix.Tree(r.ID))
	}
	return nil
}

func runDist(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	q := fs.Int("q", 2, "binary branch level")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("dist needs exactly two tree arguments")
	}
	t1, err := tree.Parse(rest[0])
	if err != nil {
		return fmt.Errorf("bad first tree: %w", err)
	}
	t2, err := tree.Parse(rest[1])
	if err != nil {
		return fmt.Errorf("bad second tree: %w", err)
	}

	space := branch.NewSpace(*q)
	p1, p2 := space.Profile(t1), space.Profile(t2)
	bd := branch.BDist(p1, p2)
	fmt.Printf("|T1|=%d |T2|=%d (q=%d)\n", t1.Size(), t2.Size(), *q)
	fmt.Printf("edit distance:        %d\n", editdist.Distance(t1, t2))
	fmt.Printf("binary branch dist:   %d (lower bound %d)\n", bd, branch.EditLowerBound(bd, *q))
	fmt.Printf("positional bound:     %d\n", branch.SearchLBound(p1, p2))
	fmt.Printf("sequence lower bound: %d\n", editdist.SequenceLowerBound(t1, t2))
	return nil
}

// runDiff prints an optimal edit script between two trees.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("diff needs exactly two tree arguments")
	}
	t1, err := tree.Parse(rest[0])
	if err != nil {
		return fmt.Errorf("bad first tree: %w", err)
	}
	t2, err := tree.Parse(rest[1])
	if err != nil {
		return fmt.Errorf("bad second tree: %w", err)
	}
	fmt.Print(editdist.EditScript(t1, t2))
	return nil
}

// runIndex builds a BiBranch index from a dataset and saves it.
func runIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	var df dataFlags
	df.register(fs)
	out := fs.String("o", "index.tsix", "output index file")
	fs.Parse(args)

	ts, err := df.loadData()
	if err != nil {
		return err
	}

	flt, err := search.ParseFilter(df.filter, df.q)
	if err != nil {
		return err
	}
	if flt == nil {
		return fmt.Errorf("filter %q cannot be saved: an index file holds a bibranch family", df.filter)
	}
	start := time.Now()
	ix := search.NewIndex(ts, flt)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = search.SaveIndex(f, ix)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d trees (q=%d) into %s in %v\n",
		ix.Size(), flt.Q, *out, time.Since(start).Round(time.Millisecond))
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var df dataFlags
	df.register(fs)
	fs.Parse(args)

	ts, err := df.loadData()
	if err != nil {
		return err
	}

	var size, height, leaves int
	labels := map[string]bool{}
	for _, t := range ts {
		size += t.Size()
		height += t.Height()
		leaves += t.Leaves()
		for l := range t.LabelCounts() {
			labels[l] = true
		}
	}
	n := float64(len(ts))
	space := branch.NewSpace(df.q)
	space.ProfileAll(ts)
	fmt.Printf("trees:           %d\n", len(ts))
	fmt.Printf("avg size:        %.2f\n", float64(size)/n)
	fmt.Printf("avg height:      %.2f\n", float64(height)/n)
	fmt.Printf("avg leaves:      %.2f\n", float64(leaves)/n)
	fmt.Printf("distinct labels: %d\n", len(labels))
	fmt.Printf("branch space:    %s distinct %d-level branches\n", strconv.Itoa(space.Size()), df.q)
	return nil
}

// runSelfJoin finds every pair of dataset trees within edit distance tau.
func runSelfJoin(args []string) error {
	fs := flag.NewFlagSet("selfjoin", flag.ExitOnError)
	var df dataFlags
	df.register(fs)
	tau := fs.Int("tau", 2, "join threshold (edit distance)")
	workers := fs.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	limit := fs.Int("limit", 20, "print at most this many pairs (0 = all)")
	fs.Parse(args)

	ts, err := df.loadData()
	if err != nil {
		return err
	}

	start := time.Now()
	pairs, stats := join.SelfJoin(ts, *tau, join.Options{Q: df.q, Workers: *workers})
	elapsed := time.Since(start)

	fmt.Printf("self-join of %d trees at tau=%d: %d pairs in %v\n",
		len(ts), *tau, stats.Results, elapsed.Round(time.Millisecond))
	fmt.Printf("exact distances computed: %d of %d candidate pairs (%.2f%%)\n",
		stats.Verified, stats.Pairs, 100*float64(stats.Verified)/float64(max(1, stats.Pairs)))
	for i, p := range pairs {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... %d more pairs\n", len(pairs)-i)
			break
		}
		fmt.Printf("dist=%d  (%d, %d)\n", p.Dist, p.R, p.S)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
