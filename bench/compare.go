package bench

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"

	"repro/internal/perfhist"
)

// loadRuns reads every untraced run envelope (*.json written by
// WriteResult) under dir, recursively, and groups each metric's values by
// workload.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		recs, err := perfhist.ReadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range recs {
			if r.Meta.Bench != EnvelopeBench {
				continue
			}
			w := out[r.Program]
			if w == nil {
				w = map[string][]float64{}
				out[r.Program] = w
			}
			for k, v := range r.Samples {
				w[k] = append(w[k], v)
			}
		}
		return nil
	})
	return out, err
}

// Compare prints, for every workload and end-to-end metric, the median of
// the runs under dirA and under dirB and their ratio (B over A). It
// reports a regression when a metric is worse in B by more than its bound
// in spec, when a workload's fail_ratio rises, or when B lacks a workload
// or metric A has; ok is false if any regression was found.
func Compare(w io.Writer, spec *Spec, dirA, dirB string) (ok bool, err error) {
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	if len(a) == 0 {
		return false, fmt.Errorf("no chipbench runs under %s", dirA)
	}
	ok = true
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "B/A", "bound")
	for _, wl := range sortedKeys(a) {
		ma, mb := a[wl], b[wl]
		if mb == nil {
			fmt.Fprintf(w, "%-13s missing from %s  REGRESSION\n", wl, dirB)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ma[m.Name], mb[m.Name]
			if len(va) == 0 {
				continue
			}
			if len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-18s missing from %s  REGRESSION\n", wl, m.Name, dirB)
				ok = false
				continue
			}
			medA, medB := median(va), median(vb)
			r := ratio(medB, medA)
			worse := m.Better == "lower" && r > 1+m.Bound || m.Better == "higher" && r < 1-m.Bound
			flag := ""
			if worse {
				flag = "  REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %8.3f %6.2f%s\n", wl, m.Name, medA, medB, r, m.Bound, flag)
		}
		fa, fb := median(ma["fail_ratio"]), median(mb["fail_ratio"])
		flag := ""
		if fb > fa {
			flag = "  REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %8s %6s%s\n", wl, "fail_ratio", fa, fb, "", "", flag)
	}
	return ok, nil
}
