package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildBinaries compiles uavdeploy and uavserve from the enclosing checkout,
// and the launcher, into dir.
func buildBinaries(t *testing.T, dir string) {
	t.Helper()
	for _, b := range []struct{ dir, pkg string }{{"..", "./cmd/uavdeploy"}, {"..", "./cmd/uavserve"}, {".", "./launcher"}} {
		cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
}

// determinismCounts are the traced run's numbers that must repeat exactly
// for one seed, so later changes can cite them as counts.
var determinismCounts = []string{
	"core.subsets_evaluated", "core.subsets_pruned", "portfolio.evals",
	"matroid.gain_queries", "matroid.bound_skips", "core.demand_nodes", "server.dedupe_hits",
}

// TestTracedCountsDeterministic runs the traced run twice per workload with
// one seed and requires identical counts, a passing replay cross-check (no
// failures) and a trace overhead figure.
func TestTracedCountsDeterministic(t *testing.T) {
	bin := t.TempDir()
	buildBinaries(t, bin)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "agg-1m" && testing.Short() {
				t.Skip("1,000,000-user scenario; skipped in -short")
			}
			var runs [2]*runOutput
			for i := range runs {
				e := &env{bin: bin, work: t.TempDir(), results: t.TempDir()}
				if err := e.prepare(); err != nil {
					t.Fatal(err)
				}
				out, err := runTraced(e, w, 7, 4)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.failures) > 0 {
					t.Fatalf("traced run %d failed its checks: %v", i, out.failures)
				}
				if _, ok := out.values["trace.overhead_frac"]; !ok {
					t.Fatal("no trace.overhead_frac")
				}
				runs[i] = out
			}
			a, b := runs[0], runs[1]
			if a.extra["served_users"] == 0 || a.extra["served_users"] != b.extra["served_users"] {
				t.Errorf("served_users: %v then %v", a.extra["served_users"], b.extra["served_users"])
			}
			for _, name := range determinismCounts {
				if a.values[name] != b.values[name] {
					t.Errorf("%s: %v then %v", name, a.values[name], b.values[name])
				}
			}
			if a.values["matroid.gain_queries"] == 0 || a.values["core.demand_nodes"] == 0 {
				t.Errorf("replay counted nothing: %v", a.values)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code in step:
// the same workloads with the same rationale, and the same per-layer metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		PerLayer  []metricSpec `json:"per_layer"`
		EndToEnd  []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayerNames))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayerNames[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %q, code %q", i, m.Name, perLayerNames[i])
		}
	}
	want := map[string]bool{"setup_s": true, "latency_s_p50": true, "served_users": true, "peak_rss_mb": true}
	for _, m := range b.EndToEnd {
		if !want[m.Name] {
			t.Errorf("end-to-end metric %q is not computed by the end-to-end run", m.Name)
		}
		delete(want, m.Name)
	}
	if len(want) > 0 {
		t.Errorf("end-to-end metrics missing from BENCHMARK.json: %v", want)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestMakeJobsShares checks the serve-open schedule: a fixed job count, the
// exact resubmission and s = 3 shares, resubmissions only of earlier fresh
// jobs at least minBack arrivals back, and distinct seeds for fresh jobs.
func TestMakeJobsShares(t *testing.T) {
	w, err := lookupWorkload("serve-open")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := w.makeJobs(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	m := w.serve
	if len(jobs) != m.jobCount(20) {
		t.Fatalf("%d jobs, want %d", len(jobs), m.jobCount(20))
	}
	seeds := map[int64]bool{}
	resub, big := 0, 0
	for i, j := range jobs {
		if i > 0 && j.due < jobs[i-1].due {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if j.repeats >= 0 {
			resub++
			if j.repeats > i-m.minBack || jobs[j.repeats].repeats >= 0 {
				t.Errorf("job %d repeats job %d", i, j.repeats)
			}
			continue
		}
		if seeds[j.scSeed] {
			t.Errorf("job %d reuses seed %d", i, j.scSeed)
		}
		seeds[j.scSeed] = true
		if j.s == 3 {
			big++
		}
	}
	if want := int(math.Round(m.resubmitShare * float64(len(jobs)))); resub != want {
		t.Errorf("%d resubmissions, want %d", resub, want)
	}
	if want := int(math.Round(m.bigShare * float64(len(jobs)-resub))); big != want || big == 0 {
		t.Errorf("%d s=3 jobs, want %d", big, want)
	}
}
