// Command perfbench is the repository's benchmark: one command that runs a
// fixed workload end to end through the uavdeploy or uavserve binary, checks
// every output, and prints every metric by name with its unit. A separate
// traced run (-trace 1) repeats the workload's solves in-process through the
// library's public functions and splits the time across the layers.
//
// Run it through run.sh from the repository root, which builds the binaries
// first:
//
//	bash perfbench/run.sh --workload enum-fig6 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare DIR_A [DIR_B]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every run also writes a result file
// (stamped with the Go version, GOMAXPROCS, CPU count, source identity and
// workload parameters) under -out, which compare reads. README.md lists the
// workloads, the metrics, and which end-to-end metric each layer metric is
// expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root    = flag.String("root", ".", "repository checkout the benchmark runs in")
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", 1, "workload seed; every input derives from it")
		seconds = flag.Int("seconds", 20, "nominal measuring time of one run")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		outDir  = flag.String("out", "", "result-file directory (default <root>/.bench_build/results)")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		return compareMain(*root, flag.Args()[1:])
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	env, err := newEnv(*root, w, *seed, *trace == 1, *outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(env.work)

	started := time.Now()
	var out *runOutput
	if *trace == 1 {
		out, err = runTraced(env, w, *seed, *seconds)
	} else {
		out, err = runUntraced(env, w, *seed, *seconds)
	}
	if err != nil {
		return err
	}
	names := spec.EndToEnd
	if *trace == 1 {
		names = spec.PerLayer
	}
	line, err := out.line(names)
	if err != nil {
		return err
	}
	rf := resultFile{
		Stamp:     newStamp(*root),
		Workload:  w.params(*seconds),
		Seed:      *seed,
		Seconds:   *seconds,
		Trace:     *trace == 1,
		WallS:     time.Since(started).Seconds(),
		Result:    line,
		Extra:     out.extra,
		Samples:   out.samples,
		Failures:  out.failures,
		SpansFile: out.spansFile,
	}
	if err := rf.write(env.results); err != nil {
		return err
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// env is one run's filesystem layout.
type env struct {
	bin     string // uavdeploy, uavserve and the launcher, built by run.sh
	work    string // generated inputs and job directories of this run
	results string // result and span files
}

// newEnv lays out a run under <root>/.bench_build and starts its work
// directory empty.
func newEnv(root string, w *workload, seed int64, traced bool, results string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if results == "" {
		results = filepath.Join(build, "results")
	}
	e := &env{
		bin:     filepath.Join(build, "bin"),
		work:    filepath.Join(build, "work", fmt.Sprintf("%s-s%d-t%d", w.name, seed, b2i(traced))),
		results: results,
	}
	return e, e.prepare()
}

// prepare checks the binaries under test and empties the work directory.
func (e *env) prepare() error {
	for _, b := range []string{"uavdeploy", "uavserve", "launcher"} {
		if _, err := os.Stat(filepath.Join(e.bin, b)); err != nil {
			return fmt.Errorf("binary under test missing (run through run.sh): %w", err)
		}
	}
	if err := os.RemoveAll(e.work); err != nil {
		return err
	}
	return os.MkdirAll(e.work, 0o755)
}
