package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

// runDeadline bounds one run, so a hung child cannot hold the benchmark past
// its contract; a run that hits it reports the unfinished work as failed.
const runDeadline = 170 * time.Second

// runUntraced runs a workload end to end with tracing off and computes the
// end-to-end metrics.
func runUntraced(e *env, w *workload, seed int64, seconds int) (*runOutput, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if w.serve != nil {
		return runServe(ctx, e, w, seed, seconds)
	}
	return runCLI(ctx, e, w, seed, seconds)
}

// cliInput is one generated scenario file.
type cliInput struct {
	path   string
	seed   int64
	served int // from the first pass; later passes must repeat it
}

// writeInputs generates and writes the run's distinct scenarios.
func writeInputs(e *env, w *workload, seed int64, n int) ([]cliInput, error) {
	inputs := make([]cliInput, n)
	for i := range inputs {
		sc, scSeed, err := w.scenario(seed, i)
		if err != nil {
			return nil, err
		}
		// Inputs are written without fsync: they need no durability, and a
		// disk flush per file would make set-up time measure the disk.
		data, err := uavnet.MarshalScenario(sc)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(e.work, fmt.Sprintf("scenario-%03d.json", i))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		inputs[i] = cliInput{path: path, seed: scSeed}
	}
	return inputs, nil
}

// deployRun is one finished uavdeploy process.
type deployRun struct {
	wall   time.Duration
	rssKB  int64
	stdout []byte
}

// runDeploy runs uavdeploy through the launcher and waits for it: the wall
// time spans process start to exit, which includes writing -out durably. If
// ctx ends first, uavdeploy is sent SIGTERM.
func runDeploy(ctx context.Context, e *env, args []string) (deployRun, error) {
	var stdout, stderr bytes.Buffer
	l, err := startLaunched(e.bin, filepath.Join(e.bin, "uavdeploy"), args, &stdout, &stderr)
	if err != nil {
		return deployRun{}, err
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			_ = l.signal(syscall.SIGTERM) // the launcher may have exited already
		case <-done:
		}
	}()
	rep, err := l.wait()
	close(done)
	r := deployRun{wall: time.Duration(rep.WallNS), rssKB: rep.MaxRSSKB, stdout: stdout.Bytes()}
	if err != nil {
		return r, fmt.Errorf("uavdeploy %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return r, nil
}

// warmUp runs uavdeploy once on a tiny inline scenario, so the binary is
// paged in before the first timed operation.
func warmUp(ctx context.Context, e *env) error {
	_, err := runDeploy(ctx, e, []string{"-n", "50", "-k", "3", "-s", "1", "-map=false"})
	return err
}

// readServed reads the Served count of a saved deployment.
func readServed(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var dep struct{ Served int }
	if err := json.Unmarshal(data, &dep); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return dep.Served, nil
}

// runCLI is the end-to-end run of a uavdeploy workload. Set-up (generating
// and writing the scenarios, one warm-up process) repeats setupReps times.
// Then every scenario is deployed once, in order; further whole passes run
// while they fit in the run's seconds, so a faster program yields more
// samples of the same inputs. served_users sums the first pass.
func runCLI(ctx context.Context, e *env, w *workload, seed int64, seconds int) (*runOutput, error) {
	out := newRunOutput()
	var setups []float64
	var inputs []cliInput
	for rep := 0; rep < w.setupReps; rep++ {
		start := time.Now()
		var err error
		if inputs, err = writeInputs(e, w, seed, w.distinct(seconds)); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Hand the generator's memory back before timing: agg-1m's set-up peaks
	// near 1 GB, which the timed children would otherwise compete with.
	debug.FreeOSMemory()

	var walls, rssKB []float64
	servedSum := 0
	outPath := filepath.Join(e.work, "deployment.json")
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		for i := range inputs {
			in := &inputs[i]
			out.attempted++
			r, err := runDeploy(ctx, e, w.deployArgs(in.path, outPath, in.seed))
			if err != nil {
				out.fail("%v", err)
				continue
			}
			walls = append(walls, r.wall.Seconds())
			rssKB = append(rssKB, float64(r.rssKB))
			served, err := readServed(outPath)
			switch {
			case err != nil:
				out.fail("input %d: %v", i, err)
			case served == 0:
				// uavdeploy skips -verify on an empty deployment.
				out.fail("input %d: deployment serves no user", i)
			case !bytes.Contains(r.stdout, []byte("verification:   ok")):
				out.fail("input %d: uavdeploy did not report a verified deployment", i)
			case pass == 0:
				in.served = served
				servedSum += served
			case served != in.served:
				out.fail("input %d: pass %d served %d, first pass %d", i, pass, served, in.served)
			}
		}
		passTime := time.Since(passStart)
		if ctx.Err() != nil || time.Since(start)+passTime > time.Duration(seconds)*time.Second {
			break
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no uavdeploy run succeeded: %v", out.failures)
	}
	out.values["setup_s"] = median(setups)
	out.values["latency_s_p50"] = median(walls)
	out.samples = walls
	out.values["served_users"] = float64(servedSum)
	// The median process's peak: the largest one swings with when the
	// garbage collector happened to run.
	out.values["peak_rss_mb"] = median(rssKB) / 1024
	out.extra["latency_samples"] = float64(len(walls))
	out.extra["distinct_inputs"] = float64(len(inputs))
	out.extra["setup_reps"] = float64(len(setups))
	out.extra["failed_frac"] = float64(len(out.failures)) / float64(max(out.attempted, 1))
	return out, nil
}
