package search

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/editdist"
	"treesim/internal/tree"
)

// FuzzLoadIndex feeds arbitrary bytes to the snapshot loader. The
// contract under corruption: fail cleanly — no panics, and no allocation
// sized by an untrusted length prefix (the decoder grows its slices as
// bytes arrive, so a 50-byte input can never demand gigabytes). When an
// input does load, it must re-save and re-load into an equivalent index.
func FuzzLoadIndex(f *testing.F) {
	save := func(ix *Index) []byte {
		var buf bytes.Buffer
		if err := SaveIndex(&buf, ix); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	v5 := save(NewIndex(testDataset(8, 41), NewBiBranch()))
	// An index with holes: sealed segments, a memtable snapshot, and
	// deleted ids inside and at the end of the id space.
	seg := NewIndex(testDataset(6, 42), NewBiBranch(), WithMemtableSize(3), WithCompactionThreshold(-1))
	for _, tr := range testDataset(5, 43) {
		seg.Insert(tr)
	}
	seg.Delete(4)
	seg.Delete(10)
	// Stars among the trees: the postings built at load hold saturated
	// counts.
	stars := NewIndex(append(testDataset(4, 44), star(40)), NewBiBranch(), WithMemtableSize(3), WithCompactionThreshold(-1))
	for _, tr := range []*tree.Tree{star(17), testDataset(1, 45)[0], star(20)} {
		stars.Insert(tr)
	}
	stars.Delete(1)
	// Every tree deleted: an empty body under a high-water mark of 3.
	gone := NewIndex(testDataset(3, 46), NewBiBranch())
	for id := range 3 {
		gone.Delete(id)
	}
	// Checksums all matching, a tree's id gap passes the high-water mark.
	past := binary.AppendUvarint(nil, 2)
	past = binary.LittleEndian.AppendUint32(past, 4)
	past = frameSnapshot(NewBiBranch(), 2, append(past, "a(b)"...))

	f.Add(v5)
	f.Add(save(seg))
	f.Add(save(stars))
	f.Add(save(gone))
	f.Add(past)
	// A header naming the non-positional bound, checksums matching.
	f.Add(withPositional(v5, 0))
	// Magics the loader must reject whatever follows them: a well-formed
	// body here, garbage below.
	for _, magic := range []string{"TSIX1\x00", "TSIX2\x00", "TSIX3\x00", "TSIX4\x00"} {
		f.Add(append([]byte(magic), v5[6:]...))
	}
	f.Add(v5[:len(v5)/2])
	f.Add([]byte("TSIX5\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("TSIX4\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("TSIX1\x00garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadIndex(bytes.NewReader(data))
		if err != nil {
			return // malformed input must fail cleanly, never panic
		}
		// A load that succeeded must be internally consistent enough to
		// round-trip.
		var buf bytes.Buffer
		if err := SaveIndex(&buf, loaded); err != nil {
			t.Fatalf("loaded index does not re-save: %v", err)
		}
		again, err := LoadIndex(&buf)
		if err != nil {
			t.Fatalf("re-saved index does not re-load: %v", err)
		}
		if again.Size() != loaded.Size() || again.Live() != loaded.Live() {
			t.Fatalf("round trip changed size/live: %d/%d -> %d/%d",
				loaded.Size(), loaded.Live(), again.Size(), again.Live())
		}
		var visible []*tree.Tree
		for i := 0; i < loaded.Size(); i++ {
			lt, lok := loaded.TreeAt(i)
			at, aok := again.TreeAt(i)
			if lok != aok {
				t.Fatalf("round trip changed visibility of id %d", i)
			}
			if lok && !tree.Equal(at, lt) {
				t.Fatalf("round trip changed tree %d", i)
			}
			if lok {
				visible = append(visible, lt)
			}
		}
		// The segment's filter is built at load: the loaded index answers
		// like one indexed afresh over its visible trees.
		if len(visible) > 0 && len(visible) <= 64 {
			fresh := NewIndex(visible, NewBiBranch())
			q := visible[len(visible)/2]
			got, _, _ := loaded.KNN(context.Background(), q, 3)
			want, _, _ := fresh.KNN(context.Background(), q, 3)
			gr, _, _ := loaded.Range(context.Background(), q, 2)
			wr, _, _ := fresh.Range(context.Background(), q, 2)
			if !reflect.DeepEqual(dists(got), dists(want)) || !reflect.DeepEqual(dists(gr), dists(wr)) {
				t.Fatalf("loaded index answers k-NN %v, range %v; afresh %v, %v", dists(got), dists(gr), dists(want), dists(wr))
			}
		}
	})
}

// FuzzExactLabelTier holds the exact label tier to a brute histogram
// ⌈L1/2⌉ over small random datasets, tree by tree. Each of the first trees
// gets a bush of 2·grow[i] extra l1 leaves (0 to 510), and the query, a
// copy of one of the trees, 0 to 399 more, so l1 is dense or not, its
// count columns saturate and wrap around 255, and the query carries it
// once, a few times or past 255 — the one case where the tier keeps the
// swept credit of a dense label, q_l for every carrier.
func FuzzExactLabelTier(f *testing.F) {
	f.Add(int64(1), uint8(6), []byte{0, 1, 7, 8, 128, 150}, uint8(2), uint16(3))
	f.Add(int64(2), uint8(9), []byte{200, 127, 128, 0, 0, 1}, uint8(0), uint16(130))
	f.Add(int64(3), uint8(4), []byte{255, 255, 255}, uint8(3), uint16(300))
	f.Add(int64(4), uint8(1), []byte{}, uint8(0), uint16(0))
	f.Add(int64(5), uint8(3), []byte{150, 150, 150}, uint8(3), uint16(100))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, grow []byte, qi uint8, qgrow uint16) {
		spec := datagen.Spec{FanoutMean: 2, FanoutStd: 1, SizeMean: 6, SizeStd: 3, Labels: 3, Decay: 0.1}
		ts := datagen.New(spec, seed).Dataset(1+int(n%10), 2)
		bush := func(tr *tree.Tree, k int) *tree.Tree {
			tr = tr.Clone()
			for ; k > 0; k-- {
				tr.Root.Children = append(tr.Root.Children, tree.NewNode(datagen.Label(1)))
			}
			return tr
		}
		for i := 0; i < len(ts) && i < len(grow); i++ {
			ts[i] = bush(ts[i], 2*int(grow[i]))
		}
		q := bush(ts[int(qi)%len(ts)], int(qgrow%400))

		b := newPayload(NewBiBranch(), ts, true).bounder(q, make([]int32, 2*len(ts)), nil)
		qh := labelHist(q)
		hs := make([]map[string]int, len(ts))
		carriers := map[string]int{}
		for i, tr := range ts {
			hs[i] = labelHist(tr)
			for l := range hs[i] {
				carriers[l]++
			}
		}
		for i, tr := range ts {
			ov := 0
			for l, tc := range hs[i] {
				if 2*carriers[l] > len(ts) && qh[l] > 255 {
					ov += qh[l]
				} else {
					ov += min(qh[l], tc)
				}
			}
			_, _, swept := b.swept(i)
			if got, want := b.ExactLabel(i), labelBound(q.Size(), tr.Size(), ov); got != want || got < swept {
				t.Fatalf("tree %d: exact label tier %d, brute %d, swept %d\n q %s\n t %s", i, got, want, swept, q, tr)
			}
		}
	})
}

// FuzzSequenceTier holds the sequence tier to its definition on random
// trees in every kind of segment: inserts into the memtable, sealed
// segments and a compacted one. Read off a profile, each tree's postorder
// and preorder label sequences are the tree's own, label for label under
// one renaming of labels to ids; the tier never exceeds the edit distance,
// under unit costs and under a model whose every operation costs at least
// 1, and uncapped it is Guha et al.'s bound as editdist computes it off
// the trees; and capped at k it is k+1 exactly when that bound exceeds k,
// the bound itself otherwise. The query carries labels no indexed tree
// has, or not, as the fuzzer picks.
func FuzzSequenceTier(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(3), uint8(2), false)
	f.Add(int64(2), uint8(20), uint8(4), uint8(0), true)
	f.Add(int64(3), uint8(5), uint8(1), uint8(7), false)
	f.Add(int64(4), uint8(14), uint8(2), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n, memtable, k uint8, fresh bool) {
		spec := datagen.Spec{FanoutMean: 2, FanoutStd: 1, SizeMean: 7, SizeStd: 3, Labels: 4, Decay: 0.1}
		g := datagen.New(spec, seed)
		ts := g.Dataset(2+int(n%24), 3)
		ix := NewIndex(ts[:len(ts)/2], NewBiBranch(), WithMemtableSize(1+int(memtable%6)), WithCompactionThreshold(-1))
		for _, tr := range ts[len(ts)/2:] {
			ix.Insert(tr)
		}
		ix.Compact()
		for _, tr := range g.Dataset(3, 2) {
			ix.Insert(tr)
		}
		q := g.RandomEdits(ts[int(seed&0xff)%len(ts)], 2)
		if q.IsEmpty() {
			q = tree.New(tree.NewNode(datagen.Label(0)))
		}
		if fresh {
			q.Root.Children = append(q.Root.Children, tree.NewNode("fresh"), tree.NewNode("fresh"))
		}

		cut := ix.cut()
		prims := newSegBounders(cut, q, make([]int32, 2*cut.n), new([]int))
		var buf seqBuf
		for si, sg := range cut.segs {
			p := payloadOf(sg)
			root, _ := p.space.Roots()
			b := prims[si]
			for i, tr := range p.trees {
				pr := p.profiles[i]
				ids, names := map[int32]string{}, map[string]int32{}
				for _, order := range []struct {
					preorder bool
					nodes    []*tree.Node
				}{{false, tr.PostOrder()}, {true, tr.PreOrder()}} {
					seq := make([]int32, pr.Size)
					pr.LabelSequence(root, seq, order.preorder)
					if len(order.nodes) != pr.Size {
						t.Fatalf("segment %d tree %d: %d nodes, profile size %d", si, i, len(order.nodes), pr.Size)
					}
					for x, nd := range order.nodes {
						id := seq[x]
						l, seen := ids[id]
						other, named := names[nd.Label]
						if id < 0 || seen && l != nd.Label || named && other != id {
							t.Fatalf("segment %d tree %d preorder=%v: node %d %q has id %d, which %q has; %q has %d\n t %s",
								si, i, order.preorder, x, nd.Label, id, l, nd.Label, other, tr)
						}
						ids[id], names[nd.Label] = nd.Label, id
					}
				}

				exact := b.Sequence(i, math.MaxInt, &buf)
				if want := editdist.SequenceLowerBound(q, tr); exact != want {
					t.Fatalf("segment %d tree %d: sequence tier %d, Guha's bound %d\n q %s\n t %s", si, i, exact, want, q, tr)
				}
				if d, dc := editdist.Distance(q, tr), editdist.Distance(q, tr, editdist.WithCost(twoPerOp{})); exact > d || exact > dc {
					t.Fatalf("segment %d tree %d: sequence tier %d above the distance %d (unit), %d (weighted)\n q %s\n t %s",
						si, i, exact, d, dc, q, tr)
				}
				capped := b.Sequence(i, int(k%8), &buf)
				if (capped == int(k%8)+1) != (exact > int(k%8)) || exact <= int(k%8) && capped != exact {
					t.Fatalf("segment %d tree %d: capped at %d the tier is %d, uncapped %d", si, i, k%8, capped, exact)
				}
			}
		}
	})
}

// FuzzCheapLevels holds the filter pass's cheap tiers, run per segment
// over its columns, to their definition tree by tree, and the scan of both
// query kinds to the cascade run tree by tree. The index has every kind of
// segment — the base one, sealed memtables, a compacted one that lists its
// ids, a live memtable — and deletes at the first and last id of sealed
// segments, on adjacent ids and in the memtable. Every visible position's
// columns read its three cheap tiers as cheapTiers defines them — the
// BDist tier by a merge-join, so the sweep and the memtable's fill are
// checked against the join — and its level is the largest of them, every
// tombstoned one's −1; the counts are a per-tree recount's; and a range
// scan at tau and a k-NN scan, at its final k-th distance, have the
// funnel, candidates and EXPLAIN's deciding bounds of the cascade run tree
// by tree, the range scan the candidates' bounds too.
func FuzzCheapLevels(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(2), uint8(3), uint8(2))
	f.Add(int64(2), uint8(45), uint8(4), uint8(0), uint8(4))
	f.Add(int64(3), uint8(12), uint8(0), uint8(5), uint8(0))
	f.Add(int64(4), uint8(39), uint8(5), uint8(2), uint8(3))
	f.Add(int64(108), uint8('4'), uint8(0xa1), uint8('S'), uint8('L')) // the exact label tier prunes
	f.Add(int64(-290), uint8(0xc5), uint8('J'), uint8('F'), uint8(8))  // the range bound at tau decides, not the k-NN one
	f.Fuzz(func(t *testing.T, seed int64, n, memtable, t8, dels uint8) {
		spec := datagen.Spec{FanoutMean: 2, FanoutStd: 1, SizeMean: 7, SizeStd: 3, Labels: 4, Decay: 0.1}
		g := datagen.New(spec, seed)
		ts := g.Dataset(9+int(n%40), 3)
		m := 2 + int(memtable%5)
		ix := NewIndex(ts[:len(ts)/3], NewBiBranch(), WithMemtableSize(m), WithCompactionThreshold(-1))
		insert := func(trees []*tree.Tree) {
			for _, tr := range trees {
				if _, err := ix.Insert(tr); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The first id of every other sealed segment with the one after it,
		// adjacent, and the last id of the others.
		edges := func() {
			for i, sg := range ix.store.View().Segments {
				if i%2 == 0 {
					ix.Delete(sg.MinID())
					ix.Delete(sg.MinID() + 1)
				} else {
					ix.Delete(sg.MaxID())
				}
			}
		}
		insert(ts[len(ts)/3 : 2*len(ts)/3])
		for i := 0; i < int(dels%6); i++ {
			ix.Delete(int(uint64(seed)>>(4*i)) % len(ts))
		}
		edges()
		ix.Compact()
		insert(ts[2*len(ts)/3:])
		edges()
		// A live memtable of m−1 trees, the first deleted when there are two.
		ix.Seal()
		insert(g.Dataset(m-1, 2))
		if m > 2 {
			ix.Delete(ix.Size() - (m - 1))
		}
		q := g.RandomEdits(ts[int(uint64(seed)%uint64(len(ts)))], 2)
		if q.IsEmpty() {
			q = tree.New(tree.NewNode(datagen.Label(0)))
		}
		tau := int(t8 % 6)

		ctx := context.Background()
		cut := ix.cut()
		acc := make([]int32, 2*cut.n)
		sc, err := ix.filterPass(ctx, cut, q, acc)
		if err != nil {
			t.Fatal(err)
		}
		var hist tierCounts
		swept := sweptLabels(ix, q)
		for pos := 0; pos < cut.n; pos++ {
			si, local, id := cut.locate(pos)
			b := sc.prims[si]
			if cut.tombs.Has(id) {
				if sc.cheap[pos] != -1 {
					t.Fatalf("tombstoned id %d (segment %d local %d) has level %d", id, si, local, sc.cheap[pos])
				}
				continue
			}
			size, bdist, label := cheapTiers(b, local, swept[id])
			if s, bd, l := b.swept(local); s != size || bd != bdist || l != label {
				t.Fatalf("segment %d local %d: columns read %d %d %d, by definition %d %d %d", si, local, s, bd, l, size, bdist, label)
			}
			level := max(size, bdist, label)
			if int(sc.cheap[pos]) != level {
				t.Fatalf("id %d (segment %d local %d): level %d, by definition %d %d %d",
					id, si, local, sc.cheap[pos], size, bdist, label)
			}
			hist = hist.add(size, max(size, bdist), level)
		}
		if !reflect.DeepEqual(sc.hist, hist) {
			t.Fatalf("counts %v, recount %v", sc.hist, hist)
		}
		scanPool.Put(sc.scanBufs)

		// k = 0 is the range scan at tau.
		ks := []int{0}
		if cut.live > 0 {
			ks = append(ks, min(1+tau, cut.live))
		}
		for _, k := range ks {
			sc, err := ix.filterPass(ctx, cut, q, acc)
			if err != nil {
				t.Fatal(err)
			}
			t0 := math.MaxInt
			if k == 0 {
				sc.fixed, t0 = true, tau
			}
			var st Stats
			out, err := ix.refine(ctx, cut, q, k, t0, sc, &st, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			worst := tau
			if k > 0 {
				worst = out[len(out)-1].Dist
			}

			// The cascade, tree by tree.
			var (
				funnel                    Funnel
				cands, candBounds, bounds []int
				seq                       seqBuf
			)
			for pos := 0; pos < cut.n; pos++ {
				si, local, id := cut.locate(pos)
				if cut.tombs.Has(id) {
					continue
				}
				b := sc.prims[si]
				size, bdist, label := cheapTiers(b, local, swept[id])
				full := b.KNNBound(local)
				if k == 0 {
					full = b.RangeBound(local, tau)
				}
				switch exact := b.ExactLabel(local); {
				case size > worst:
					funnel.Size++
					bounds = append(bounds, size)
				case bdist > worst:
					funnel.BDist++
					bounds = append(bounds, bdist)
				case label > worst:
					funnel.Label++
					bounds = append(bounds, label)
				case exact > worst:
					funnel.Label++
					bounds = append(bounds, exact)
				default:
					key := max(full, exact)
					bounds = append(bounds, key)
					switch {
					case key > worst:
						funnel.Positional++
					case b.Sequence(local, worst, &seq) > worst:
						funnel.Sequence++
					default:
						cands, candBounds = append(cands, pos), append(candBounds, key)
					}
				}
			}
			got := sc.decidingBounds(worst)
			slices.Sort(got)
			slices.Sort(bounds)
			if nc, f := sc.funnel(worst); f != funnel || nc != len(cands) || !slices.Equal(got, bounds) {
				t.Fatalf("k %d, threshold %d: funnel %+v, %d candidates, deciding bounds %v; tree by tree %+v, %v, %v",
					k, worst, f, nc, got, funnel, cands, bounds)
			}
			if k == 0 {
				// A range scan verifies its candidates and nothing else.
				var handed [][2]int
				for _, h := range sc.handed {
					if int(h.seq) <= tau {
						handed = append(handed, [2]int{int(h.pos), int(h.key)})
					}
				}
				slices.SortFunc(handed, func(x, y [2]int) int { return x[0] - y[0] })
				if len(handed) != len(cands) || st.Verified != len(cands) {
					t.Fatalf("tau %d: %d verified of %v handed out; candidates %v", tau, st.Verified, handed, cands)
				}
				for i, h := range handed {
					if h[0] != cands[i] || h[1] != candBounds[i] {
						t.Fatalf("tau %d: handed out %v, candidates %v with bounds %v", tau, handed, cands, candBounds)
					}
				}
			}
			scanPool.Put(sc.scanBufs)
		}
	})
}

// cheapTiers is tree i of bounder b's segment's three cheap tiers by their
// definitions: ||q|−|t||, ⌈BDist/Factor⌉ off a merge-join of the two
// branch vectors, and the swept label tier, label (see sweptLabels).
func cheapTiers(b *biBranchBounder, i, label int) (size, bdist, lb int) {
	t := b.p.profiles[i]
	return max(b.qp.Size-t.Size, t.Size-b.qp.Size), (branch.BDist(b.qp, t) + b.factor - 1) / b.factor, label
}

// add counts one more tree.
func (h tierCounts) add(size, bdist, level int) tierCounts {
	h = h.fit(level)
	h[3*size+bySize]++
	h[3*bdist+byBDist]++
	h[3*level+byLevel]++
	return h
}
