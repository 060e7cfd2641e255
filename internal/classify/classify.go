// Package classify implements k-NN classification of tree-structured data
// — one of the database manipulations the paper motivates (Section 1).
// A query tree is assigned the majority class among its k nearest training
// trees under the tree edit distance; neighbor retrieval runs through the
// binary branch filter-and-refine engine, so classification cost is
// dominated by the few exact distances that survive the filter.
package classify

import (
	"context"
	"fmt"
	"sort"

	"treesim/internal/search"
	"treesim/internal/tree"
)

// Classifier is a k-NN classifier over a labeled tree collection.
type Classifier struct {
	ix      *search.Index
	classes []string
	k       int
}

// New builds a classifier from parallel slices of training trees and class
// labels. k is the neighborhood size; filter may be nil (sequential scan).
func New(ts []*tree.Tree, classes []string, k int, filter *search.BiBranch) (*Classifier, error) {
	if len(ts) != len(classes) {
		return nil, fmt.Errorf("classify: %d trees but %d class labels", len(ts), len(classes))
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("classify: empty training set")
	}
	if k < 1 {
		return nil, fmt.Errorf("classify: k must be positive, got %d", k)
	}
	return &Classifier{
		ix:      search.NewIndex(ts, filter),
		classes: classes,
		k:       k,
	}, nil
}

// Prediction is the outcome of classifying one tree.
type Prediction struct {
	Class     string
	Neighbors []search.Result // the k nearest training trees
	Votes     map[string]int  // votes per class among the neighbors
	Stats     search.Stats
}

// Predict classifies t by majority vote among its k nearest neighbors.
// Ties are broken by the smaller summed distance, then lexicographically,
// so prediction is deterministic.
func (c *Classifier) Predict(t *tree.Tree) Prediction {
	nn, stats, _ := c.ix.KNN(context.Background(), t, c.k)
	votes := make(map[string]int)
	distSum := make(map[string]int)
	for _, r := range nn {
		cls := c.classes[r.ID]
		votes[cls]++
		distSum[cls] += r.Dist
	}
	best := ""
	for cls := range votes {
		if best == "" || better(votes, distSum, cls, best) {
			best = cls
		}
	}
	return Prediction{Class: best, Neighbors: nn, Votes: votes, Stats: stats}
}

func better(votes, distSum map[string]int, a, b string) bool {
	switch {
	case votes[a] != votes[b]:
		return votes[a] > votes[b]
	case distSum[a] != distSum[b]:
		return distSum[a] < distSum[b]
	default:
		return a < b
	}
}

// Evaluation summarizes classifier accuracy over a labeled test set.
type Evaluation struct {
	Total     int
	Correct   int
	Confusion map[string]map[string]int // Confusion[truth][predicted]
	Verified  int                       // exact distances computed in total
}

// Accuracy returns the fraction of correct predictions.
func (e Evaluation) Accuracy() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Total)
}

// Classes lists the class labels appearing in the evaluation, sorted.
func (e Evaluation) Classes() []string {
	set := map[string]bool{}
	for truth, row := range e.Confusion {
		set[truth] = true
		for pred := range row {
			set[pred] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Evaluate classifies every test tree and tallies accuracy and the
// confusion matrix.
func (c *Classifier) Evaluate(ts []*tree.Tree, truth []string) (Evaluation, error) {
	if len(ts) != len(truth) {
		return Evaluation{}, fmt.Errorf("classify: %d test trees but %d labels", len(ts), len(truth))
	}
	ev := Evaluation{Confusion: make(map[string]map[string]int)}
	for i, t := range ts {
		p := c.Predict(t)
		ev.Total++
		ev.Verified += p.Stats.Verified
		if p.Class == truth[i] {
			ev.Correct++
		}
		row := ev.Confusion[truth[i]]
		if row == nil {
			row = make(map[string]int)
			ev.Confusion[truth[i]] = row
		}
		row[p.Class]++
	}
	return ev, nil
}
