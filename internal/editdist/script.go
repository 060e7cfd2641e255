package editdist

import (
	"fmt"
	"strings"

	"treesim/internal/tree"
)

// OpKind classifies one step of an edit script.
type OpKind int

// The edit operations of Section 2.1, plus Match for mapped pairs with
// equal labels (cost 0, included so the script describes the full mapping).
const (
	Match OpKind = iota
	Relabel
	Delete
	Insert
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case Match:
		return "match"
	case Relabel:
		return "relabel"
	case Delete:
		return "delete"
	case Insert:
		return "insert"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one step of an optimal edit script. Nodes are identified by their
// 1-based postorder index in their tree (A = source, B = target); 0 means
// the op does not touch that side.
type Op struct {
	Kind   OpKind
	AIndex int    // postorder index in T1 (0 for Insert)
	BIndex int    // postorder index in T2 (0 for Delete)
	ALabel string // label of the T1 node ("" for Insert)
	BLabel string // label of the T2 node ("" for Delete)
	Cost   int
}

// String renders the op compactly, e.g. `relabel a@3 -> b@4`.
func (o Op) String() string {
	switch o.Kind {
	case Match:
		return fmt.Sprintf("match   %s@%d == %s@%d", o.ALabel, o.AIndex, o.BLabel, o.BIndex)
	case Relabel:
		return fmt.Sprintf("relabel %s@%d -> %s@%d", o.ALabel, o.AIndex, o.BLabel, o.BIndex)
	case Delete:
		return fmt.Sprintf("delete  %s@%d", o.ALabel, o.AIndex)
	default:
		return fmt.Sprintf("insert  %s@%d", o.BLabel, o.BIndex)
	}
}

// Script is an optimal edit script: a minimum-cost operation sequence
// transforming T1 into T2, together with the underlying Tai mapping.
type Script struct {
	Ops  []Op
	Cost int
}

// Mapping returns the mapped node pairs as (postorder in T1, postorder in
// T2), including both matches and relabels.
func (s *Script) Mapping() [][2]int {
	var out [][2]int
	for _, op := range s.Ops {
		if op.Kind == Match || op.Kind == Relabel {
			out = append(out, [2]int{op.AIndex, op.BIndex})
		}
	}
	return out
}

// Counts returns how many relabels, deletes and inserts the script uses.
func (s *Script) Counts() (relabels, deletes, inserts int) {
	for _, op := range s.Ops {
		switch op.Kind {
		case Relabel:
			relabels++
		case Delete:
			deletes++
		case Insert:
			inserts++
		}
	}
	return
}

// String renders the non-trivial operations, one per line.
func (s *Script) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cost %d\n", s.Cost)
	for _, op := range s.Ops {
		if op.Kind == Match {
			continue
		}
		sb.WriteString(op.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// EditScript returns an optimal unit-cost edit script from t1 to t2.
func EditScript(t1, t2 *tree.Tree) *Script {
	return EditScriptCost(t1, t2, UnitCost{})
}

// EditScriptCost returns an optimal edit script under an arbitrary cost
// model, by backtracing the Zhang–Shasha dynamic program. Its cost always
// equals Distance(t1, t2, WithCost(c)).
func EditScriptCost(t1, t2 *tree.Tree, c CostModel) *Script {
	q := Prepare(t1, WithCost(c))
	a := q.d
	b := new(scratch).decompose(t2, q)
	s := &Script{}
	if a.n == 0 || b.n == 0 {
		for i := 1; i <= a.n; i++ {
			s.emit(Op{Kind: Delete, AIndex: i, ALabel: a.label[i], Cost: c.Delete(a.label[i])})
		}
		for j := 1; j <= b.n; j++ {
			s.emit(Op{Kind: Insert, BIndex: j, BLabel: b.label[j], Cost: c.Insert(b.label[j])})
		}
		return s
	}

	// Phase 1: the kernel with the band off fills the tree-distance table.
	k := newKernel(a, b, c, noCutoff, a.n+b.n)
	defer k.release()
	k.run()
	// Phase 2: recursive backtrace. Each call re-derives the forest
	// distances for the subtree pair (i, j) and walks the optimal path,
	// emitting operations; subtree matches solved elsewhere recurse.
	fd, w := k.fd, k.w
	var backtrace func(i, j int)
	backtrace = func(i, j int) {
		treeDist(k, i, j)
		li, lj := a.lml[i], b.lml[j]
		di, dj := i, j
		for di >= li || dj >= lj {
			switch {
			case di >= li && (dj < lj || fd[di*w+dj] == fd[(di-1)*w+dj]+k.dcost[di]):
				s.emit(Op{Kind: Delete, AIndex: di, ALabel: a.label[di], Cost: k.dcost[di]})
				di--
			case dj >= lj && (di < li || fd[di*w+dj] == fd[di*w+dj-1]+k.icost[dj]):
				s.emit(Op{Kind: Insert, BIndex: dj, BLabel: b.label[dj], Cost: k.icost[dj]})
				dj--
			case a.lml[di] == li && b.lml[dj] == lj:
				// Both prefixes are whole subtrees: (di, dj) is mapped.
				cost := c.Relabel(a.label[di], b.label[dj])
				kind := Relabel
				if cost == 0 && a.label[di] == b.label[dj] {
					kind = Match
				}
				s.emit(Op{Kind: kind, AIndex: di, BIndex: dj,
					ALabel: a.label[di], BLabel: b.label[dj], Cost: cost})
				di--
				dj--
			default:
				// The cell came from an independently solved subtree
				// pair: resolve it recursively, then jump across it.
				// Recursion clobbers fd, so refill this forest afterwards.
				si, sj := di, dj
				di, dj = a.lml[si]-1, b.lml[sj]-1
				backtrace(si, sj)
				treeDist(k, i, j)
			}
		}
	}
	backtrace(a.n, b.n)
	return s
}

func (s *Script) emit(op Op) {
	s.Ops = append(s.Ops, op)
	s.Cost += op.Cost
}
