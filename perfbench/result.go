package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/uav-coverage/uavnet/internal/atomicfile"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// lists it must print, with their units and bounds.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runOutput is what a run measured and checked.
type runOutput struct {
	attempted int
	failures  []string
	values    map[string]float64
	// extra holds numbers recorded in the result file but not printed:
	// sample counts, percentiles without enough samples beyond them, and the
	// count fields the determinism test compares.
	extra map[string]float64
	// samples are the per-operation latencies behind latency_s_p50.
	samples   []float64
	spansFile string
}

func newRunOutput() *runOutput {
	return &runOutput{values: map[string]float64{}, extra: map[string]float64{}}
}

func (o *runOutput) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// resultLine is the benchmark's last output line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders exactly the listed metrics. A listed metric the run did not
// compute is a bug in the benchmark, not a zero.
func (o *runOutput) line(names []metricSpec) (resultLine, error) {
	l := resultLine{
		Correct:   len(o.failures) == 0,
		Attempted: max(o.attempted, 1),
		Failed:    min(len(o.failures), max(o.attempted, 1)),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range names {
		v, ok := o.values[m.Name]
		if !ok {
			return l, fmt.Errorf("metric %s was not computed", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return l, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		l.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return l, nil
}

// stamp identifies the toolchain, machine and source a result came from.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Time       string `json:"time"`
}

func newStamp(root string) stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit returns HEAD, or "unknown" in a checkout that is not a git
// repository; the source hash identifies the code either way.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod file of the checkout outside
// .bench_build, in path order.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultFile is one run's record on disk.
type resultFile struct {
	Stamp     stamp              `json:"stamp"`
	Workload  map[string]any     `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	WallS     float64            `json:"wall_s"`
	Result    resultLine         `json:"result"`
	Extra     map[string]float64 `json:"extra"`
	Samples   []float64          `json:"latency_samples_s,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	SpansFile string             `json:"spans_file,omitempty"`
}

func (rf *resultFile) fileName() string {
	return fmt.Sprintf("%s.seed%d.trace%d.json", rf.Workload["name"], rf.Seed, b2i(rf.Trace))
}

func (rf *resultFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(filepath.Join(dir, rf.fileName()), append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// median returns the middle value (mean of the two middle values for an
// even count), as Python's statistics.median does; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0..100) by the nearest-rank method.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
