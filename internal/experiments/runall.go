package experiments

import (
	"fmt"
	"io"
)

// FigureNames lists the reproducible figures in paper order.
var FigureNames = []string{"7", "8", "9", "10", "11", "12", "13", "14", "15"}

// Run executes one figure by number and writes its table to w as aligned
// text.
func Run(fig string, cfg Config, w io.Writer) error {
	return RunFormat(fig, cfg, w, "text")
}

// RunFormat is Run with an output format: "text" (aligned, human-readable)
// or "csv" (for plotting tools).
func RunFormat(fig string, cfg Config, w io.Writer, format string) error {
	emit := func(t *Table) error {
		if format == "csv" {
			return t.CSV(w)
		}
		t.Format(w)
		return nil
	}
	switch fig {
	case "7":
		return emit(Fig07(cfg))
	case "8":
		return emit(Fig08(cfg))
	case "9":
		return emit(Fig09(cfg))
	case "10":
		return emit(Fig10(cfg))
	case "11":
		return emit(Fig11(cfg))
	case "12":
		return emit(Fig12(cfg))
	case "13":
		return emit(Fig13(cfg))
	case "14":
		return emit(Fig14(cfg))
	case "15":
		t := Fig15(cfg)
		if format == "csv" {
			return t.CSV(w)
		}
		t.Format(w)
		return nil
	case "ablation-positional":
		return emit(AblationPositional(cfg))
	case "ablation-q":
		return emit(AblationQ(cfg))
	case "io":
		t, err := IOCost(cfg)
		if err != nil {
			return err
		}
		return emit(t)
	default:
		return fmt.Errorf("experiments: unknown figure %q (have %v, ablation-positional, ablation-q)",
			fig, FigureNames)
	}
}

// RunAll executes every figure in order, separating them with blank lines.
func RunAll(cfg Config, w io.Writer) error {
	for i, fig := range FigureNames {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := Run(fig, cfg, w); err != nil {
			return err
		}
	}
	return nil
}
