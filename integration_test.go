package treesim

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestEndToEndPipeline drives the whole system the way a downstream user
// would: generate a dataset, persist it, reload it, build and persist an
// index, reload that, answer k-NN and range queries exactly, self-join the
// data, and diff two of its members — asserting cross-component
// consistency at every step.
func TestEndToEndPipeline(t *testing.T) {
	spec, err := ParseGeneratorSpec("N{3,0.5}N{22,2}L6D0.05")
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDataset(spec, 120, 12, 2026)

	// Dataset persistence round trip.
	var buf bytes.Buffer
	if err := SaveDataset(&buf, data); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadDataset(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != len(data) {
		t.Fatalf("reloaded %d trees", len(reloaded))
	}

	// Index persistence round trip over the reloaded data.
	ix := NewIndex(reloaded, NewBiBranchFilter())
	buf.Reset()
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	ix, err = LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Queries through the reloaded index match a sequential scan over the
	// original data.
	seq := NewIndex(data)
	query := data[31]
	wantK, _, _ := seq.KNN(context.Background(), query, 5)
	gotK, stats, _ := ix.KNN(context.Background(), query, 5)
	for i := range wantK {
		if wantK[i].Dist != gotK[i].Dist {
			t.Fatalf("k-NN distances diverge at %d: %v vs %v", i, gotK, wantK)
		}
	}
	if stats.Verified >= stats.Dataset {
		t.Error("filter did not prune anything")
	}

	tau := wantK[len(wantK)-1].Dist
	wantR, _, _ := seq.Range(context.Background(), query, tau)
	gotR, _, _ := ix.Range(context.Background(), query, tau)
	if len(wantR) != len(gotR) {
		t.Fatalf("range results diverge: %d vs %d", len(gotR), len(wantR))
	}

	// Every k-NN answer must also be a range answer at its own distance,
	// and the self-join at tau must contain each (query, neighbor) pair.
	pairs, _ := SelfJoin(data, tau, JoinOptions{})
	inJoin := map[[2]int]int{}
	for _, p := range pairs {
		inJoin[[2]int{p.R, p.S}] = p.Dist
		inJoin[[2]int{p.S, p.R}] = p.Dist
	}
	for _, r := range gotK {
		if r.ID == 31 {
			continue // self-pairs are not join results
		}
		d, ok := inJoin[[2]int{31, r.ID}]
		if !ok || d != r.Dist {
			t.Fatalf("join missing pair (31,%d) at distance %d", r.ID, r.Dist)
		}
	}

	// Edit scripts agree with the distances the engine reported.
	for _, r := range gotK[:2] {
		s := EditScript(query, ix.Tree(r.ID))
		if s.Cost != r.Dist {
			t.Fatalf("script cost %d, engine distance %d", s.Cost, r.Dist)
		}
	}

	// The constrained distance never undercuts any reported distance.
	for _, r := range gotK {
		if cd := ConstrainedEditDistance(query, ix.Tree(r.ID)); cd < r.Dist {
			t.Fatalf("constrained %d below edit distance %d", cd, r.Dist)
		}
	}
}
