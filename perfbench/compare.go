package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain is `perfbench compare DIR_A [DIR_B]`. For each workload and
// metric it prints each side's median and quartiles over the result files
// found (one file per seed), and the spread: the interquartile distance as a
// share of the median. With two directories it also prints B's median change
// against A's and a verdict for every end-to-end metric:
//
//	unresolved  a side's spread is wider than the metric's bound, and not
//	            every run of one side reads better than every run of the other
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better than A's by more than the bound
//	within      neither
//
// "better" is not a claimed gain: that needs paired, alternating runs.
// With one directory the verdict is "unresolved" for a spread over the bound
// and "steady" for a spread within a third of it.
func compareMain(root string, dirs []string) error {
	if len(dirs) < 1 || len(dirs) > 2 {
		return fmt.Errorf("usage: compare DIR_A [DIR_B]")
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	bounds := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	sets := make([]map[string][]float64, len(dirs))
	for i, d := range dirs {
		if sets[i], err = loadResults(d); err != nil {
			return err
		}
	}
	keys := map[string]bool{}
	for _, s := range sets {
		for k := range s {
			keys[k] = true
		}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	header := "workload\tmetric\tA median [q1, q3] n\tA spread"
	if len(dirs) == 2 {
		header += "\tB median [q1, q3] n\tB spread\tB vs A"
	}
	fmt.Fprintln(tw, header+"\tverdict")
	for _, k := range sorted {
		wl, metric, _ := strings.Cut(k, "\x00")
		a := sets[0][k]
		row := fmt.Sprintf("%s\t%s\t%s\t%s", wl, metric, describe(a), fmtSpread(a))
		m, bounded := bounds[metric]
		verdict := "-"
		if len(dirs) == 1 {
			if bounded {
				verdict = soloVerdict(a, m)
			}
		} else {
			b := sets[1][k]
			row += fmt.Sprintf("\t%s\t%s\t%s", describe(b), fmtSpread(b), fmtChange(a, b))
			if bounded {
				verdict = pairVerdict(a, b, m)
			}
		}
		fmt.Fprintln(tw, row+"\t"+verdict)
	}
	return tw.Flush()
}

// loadResults reads every result file in dir into workload\x00metric ->
// values. Traced files contribute their metrics under "<workload> (traced)".
func loadResults(dir string) (map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.trace[01].json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	out := map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		wl := fmt.Sprint(rf.Workload["name"])
		if rf.Trace {
			wl += " (traced)"
		}
		for name, m := range rf.Result.Metrics {
			out[wl+"\x00"+name] = append(out[wl+"\x00"+name], m.Value)
		}
		for name, v := range rf.Extra {
			out[wl+"\x00extra."+name] = append(out[wl+"\x00extra."+name], v)
		}
		out[wl+"\x00failed"] = append(out[wl+"\x00failed"], float64(rf.Result.Failed))
	}
	return out, nil
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(xs), q1, q3, len(xs))
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func fmtSpread(xs []float64) string {
	s := spread(xs)
	if math.IsNaN(s) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*s)
}

func fmtChange(a, b []float64) string {
	if len(a) == 0 || len(b) == 0 || median(a) == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(median(b)-median(a))/math.Abs(median(a)))
}

func soloVerdict(a []float64, m metricSpec) string {
	switch s := spread(a); {
	case math.IsNaN(s):
		return "-"
	case s > m.Bound:
		return "unresolved"
	case s <= m.Bound/3:
		return "steady"
	}
	return "within bound"
}

// pairVerdict applies the bound of m to B against A.
func pairVerdict(a, b []float64, m metricSpec) string {
	if len(a) == 0 || len(b) == 0 {
		return "-"
	}
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		switch {
		case allBetter(b, a, sign):
			return "better (every run)"
		case allBetter(a, b, sign):
			return "worse (every run)"
		}
		return "unresolved"
	}
	change := sign * (median(b) - median(a)) / math.Abs(median(a))
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "within"
}

// allBetter reports whether every value of x reads better than every value
// of y under the direction sign (+1: lower is better).
func allBetter(x, y []float64, sign float64) bool {
	for _, xv := range x {
		for _, yv := range y {
			if sign*(xv-yv) >= 0 {
				return false
			}
		}
	}
	return true
}
