package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/atomicfile"
)

// span is one timed call into a layer, as offsets from the tracer's start.
// Spans of one operation share op; parent is the enclosing span's id, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(op, parent int, name string, start, end time.Duration) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(start), End: int64(end)})
	return len(t.spans) - 1
}

// step runs f as the span name under op, with a runtime/pprof label
// span=name so CPU samples taken inside it (and inside goroutines it starts)
// carry the layer. A nil tracer runs f bare: the untraced pass.
func (t *tracer) step(ctx context.Context, op, parent int, name string, f func(context.Context) error) error {
	if t == nil {
		return f(ctx)
	}
	id := t.add(op, parent, name, time.Since(t.t0), 0)
	var err error
	pprof.Do(ctx, pprof.Labels("span", name), func(ctx context.Context) { err = f(ctx) })
	t.spans[id].End = int64(time.Since(t.t0))
	return err
}

// selfTimes returns each span's duration minus the time its children cover
// (children of one span never overlap: they are sequential calls).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// selfByName collects the self times of every span with the given name.
func (t *tracer) selfByName(name string) []float64 {
	self := t.selfTimes()
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, append(data, '\n'), 0o644)
}

// opStats is one in-process operation's counts.
type opStats struct {
	served            int
	evaluated, pruned int64
	portfolio         bool
	nodes             int
	inBytes, outBytes int
	in                *uavnet.Instance
	dep               *uavnet.Deployment
	opts              uavnet.Options
	wall              time.Duration
	solveWall         time.Duration
	aggregated        bool
}

// pipeline is one operation in-process, through the public functions the
// uavdeploy binary calls, in its order: read, decode, precompute, solve,
// verify, encode, write. With a nil tracer it records nothing.
func pipeline(ctx context.Context, t *tracer, op int, w *workload, path, outPath string, opts uavnet.Options) (*opStats, error) {
	st := &opStats{opts: opts, portfolio: opts.Solver != "", aggregated: w.aggCell > 0}
	start := time.Now()
	var root int
	if t != nil {
		root = t.add(op, -1, "op", time.Since(t.t0), 0)
	}
	var (
		data []byte
		sc   *uavnet.Scenario
	)
	steps := []struct {
		name string
		f    func(context.Context) error
	}{
		{"read", func(context.Context) (err error) {
			data, err = os.ReadFile(path)
			st.inBytes = len(data)
			return err
		}},
		{"decode", func(context.Context) (err error) {
			sc, err = uavnet.UnmarshalScenario(data)
			return err
		}},
		{"precompute", func(context.Context) (err error) {
			if w.aggCell > 0 {
				st.in, err = uavnet.NewAggregateInstance(sc, uavnet.AggregateOptions{CellSide: w.aggCell})
			} else {
				st.in, err = uavnet.NewInstance(sc)
			}
			return err
		}},
		{"solve", func(ctx context.Context) (err error) {
			s0 := time.Now()
			if st.portfolio {
				st.dep, _, err = uavnet.DeployPortfolioContext(ctx, st.in, opts, nil)
			} else {
				st.dep, err = uavnet.DeployInstanceContext(ctx, st.in, opts)
			}
			st.solveWall = time.Since(s0)
			return err
		}},
		{"verify", func(context.Context) error {
			if st.dep.Served == 0 {
				return fmt.Errorf("deployment serves no user")
			}
			if rep := uavnet.Verify(st.in, st.dep); !rep.OK() {
				return fmt.Errorf("verification failed: %s", rep)
			}
			return nil
		}},
		{"encode", func(context.Context) (err error) {
			data, err = uavnet.MarshalDeployment(st.dep)
			data = append(data, '\n')
			st.outBytes = len(data)
			return err
		}},
		{"write", func(context.Context) error {
			return atomicfile.WriteFile(outPath, data, 0o644)
		}},
	}
	for _, s := range steps {
		if err := t.step(ctx, op, root, s.name, s.f); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, s.name, err)
		}
	}
	if t != nil {
		t.spans[root].End = int64(time.Since(t.t0))
	}
	st.wall = time.Since(start)
	st.served = st.dep.Served
	st.nodes = st.in.NumNodes()
	st.evaluated, st.pruned = st.dep.SubsetsEvaluated, st.dep.SubsetsPruned
	return st, nil
}

// tracedInput is an input file the traced run solves in-process.
type tracedInput struct {
	path string
	opts uavnet.Options
}

// tracedJobs is how many fresh serve-open jobs the traced run also solves
// in-process.
const tracedJobs = 3

// runTraced is the per-layer run: the workload's inputs solved in-process,
// each once untraced and once traced (spans, pprof labels, CPU profile), an
// anchor-subset replay through the lower layers, and for serve-open the open
// loop again with the client's view of each job split into spans.
func runTraced(e *env, w *workload, seed int64, seconds int) (*runOutput, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out := newRunOutput()
	for _, m := range perLayerNames {
		out.values[m] = 0
	}
	t := newTracer()

	var inputs []tracedInput
	var serveJobs []*job
	if w.serve != nil {
		// The open loop runs first, outside the CPU profile: the client is
		// idle most of the time and the server is another process.
		r, err := runOpenLoop(ctx, e, w, seed, seconds, out)
		if err != nil {
			return nil, err
		}
		serveJobs = r.jobs
		lat, served := checkJobs(r.jobs, out)
		recordServeExtras(r, lat, out)
		out.extra["served_users"] = float64(served)
		serveLayer(t, r, lat, out)
		for _, j := range r.jobs {
			if j.repeats < 0 && len(inputs) < tracedJobs {
				path := filepath.Join(e.work, fmt.Sprintf("job-%03d.json", len(inputs)))
				if err := uavnet.SaveScenario(path, j.scenario); err != nil {
					return nil, err
				}
				inputs = append(inputs, tracedInput{path: path, opts: uavnet.Options{S: j.s, Workers: 1}})
			}
		}
	} else {
		// The first quarter of the end-to-end run's inputs, same seeds.
		all, err := writeInputs(e, w, seed, max(1, w.distinct(seconds)/4))
		if err != nil {
			return nil, err
		}
		for _, in := range all {
			inputs = append(inputs, tracedInput{path: in.path, opts: w.options(in.seed)})
		}
	}

	outPath := filepath.Join(e.work, "deployment.json")
	// One untimed pass first, so neither timed pass of the first input pays
	// for faulting in the file and growing the heap.
	if _, err := pipeline(ctx, nil, -1, w, inputs[0].path, outPath, inputs[0].opts); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var plain, traced time.Duration
	var ops []*opStats
	for i, in := range inputs {
		out.attempted++
		// Alternate which pass goes first, so warm-up costs fall on both.
		var a, b *opStats
		var errA, errB error
		if i%2 == 0 {
			a, errA = pipeline(ctx, nil, i, w, in.path, outPath, in.opts)
			b, errB = pipeline(ctx, t, i, w, in.path, outPath, in.opts)
		} else {
			b, errB = pipeline(ctx, t, i, w, in.path, outPath, in.opts)
			a, errA = pipeline(ctx, nil, i, w, in.path, outPath, in.opts)
		}
		if err := errors.Join(errA, errB); err != nil {
			out.fail("%v", err)
			continue
		}
		if a.served != b.served {
			out.fail("input %d: untraced pass served %d, traced pass %d", i, a.served, b.served)
		}
		plain += a.wall
		traced += b.wall
		ops = append(ops, b)
	}
	rep := newReplay()
	for i, op := range ops {
		if err := rep.run(ctx, op, inputSeed(seed, w.name+"/replay", i)); err != nil {
			out.fail("replay of input %d: %v", i, err)
		}
	}
	pprof.StopCPUProfile()
	if len(ops) == 0 {
		return nil, fmt.Errorf("no in-process operation succeeded: %v", out.failures)
	}
	if serveJobs != nil {
		if err := checkpointLayer(ctx, e, serveJobs, out); err != nil {
			out.fail("checkpoint timing: %v", err)
		}
	}

	opLayers(t, ops, out)
	rep.record(out)
	out.values["trace.overhead_frac"] = float64(traced-plain) / float64(plain)
	if err := cpuLayers(prof.Bytes(), out); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if w.serve == nil {
		served := 0
		for _, op := range ops {
			served += op.served
		}
		out.extra["served_users"] = float64(served)
	}
	out.spansFile = fmt.Sprintf("%s.seed%d.trace1.spans.json", w.name, seed)
	if err := os.MkdirAll(e.results, 0o755); err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(e.results, out.spansFile)); err != nil {
		return nil, err
	}
	out.extra["traced_ops"] = float64(len(ops))
	return out, nil
}

// opLayers turns the in-process operations' spans and counts into layer
// metrics: span metrics are medians over operations of the span's self time.
func opLayers(t *tracer, ops []*opStats, out *runOutput) {
	v := out.values
	med := func(name string) float64 { return median(t.selfByName(name)) }
	v["scenario_io.read_ms"] = med("read")
	v["scenario_io.decode_ms"] = med("decode")
	v["verify.check_ms"] = med("verify")
	v["persist.encode_ms"] = med("encode")
	v["persist.write_ms"] = med("write")
	if ops[0].aggregated {
		v["core.aggregate_ms"] = med("precompute")
	} else {
		v["core.instance_ms"] = med("precompute")
	}
	if ops[0].portfolio {
		v["portfolio.race_ms"] = med("solve")
	} else {
		v["core.solve_ms"] = med("solve")
	}
	var inBytes, outBytes, nodes []float64
	var evaluated, pruned, evals int64
	var raceWall time.Duration
	for _, op := range ops {
		inBytes = append(inBytes, float64(op.inBytes))
		outBytes = append(outBytes, float64(op.outBytes))
		nodes = append(nodes, float64(op.nodes))
		if op.portfolio {
			evals += op.evaluated
			raceWall += op.solveWall
		} else {
			evaluated += op.evaluated
			pruned += op.pruned
		}
	}
	v["scenario_io.bytes"] = median(inBytes)
	v["persist.bytes"] = median(outBytes)
	v["core.demand_nodes"] = median(nodes)
	v["core.subsets_evaluated"] = float64(evaluated)
	v["core.subsets_pruned"] = float64(pruned)
	if evaluated+pruned > 0 {
		v["core.prune_ratio"] = float64(pruned) / float64(evaluated+pruned)
	}
	v["portfolio.evals"] = float64(evals)
	if raceWall > 0 {
		v["portfolio.evals_per_s"] = float64(evals) / raceWall.Seconds()
	}
}

// serveLayer records the client-observed job phases as spans and layer
// metrics (after recordServeExtras, whose dedupe count it reports). Queue
// wait and run time come from fresh jobs only: a resubmission is answered
// from the dedupe table and never queues.
func serveLayer(t *tracer, r *serveRun, lat []float64, out *runOutput) {
	base := time.Since(t.t0)
	var submit, queued, running, result []float64
	for i, j := range r.jobs {
		if j.err != nil {
			continue
		}
		root := t.add(i, -1, "job", base+j.due, base+j.resultEnd)
		t.add(i, root, "submit", base+j.sent, base+j.submitted)
		t.add(i, root, "queued", base+j.submitted, base+j.running)
		t.add(i, root, "running", base+j.running, base+j.done)
		t.add(i, root, "result", base+j.resultStart, base+j.resultEnd)
		submit = append(submit, ms(j.submitted-j.sent))
		result = append(result, ms(j.resultEnd-j.resultStart))
		if j.repeats >= 0 {
			continue
		}
		queued = append(queued, ms(j.running-j.submitted))
		running = append(running, ms(j.done-j.running))
	}
	v := out.values
	v["server.submit_ms"] = median(submit)
	v["server.queue_wait_ms"] = median(queued)
	v["server.run_ms"] = median(running)
	v["server.result_ms"] = median(result)
	v["server.dedupe_hits"] = out.extra["dedupe_hits"]
	v["loadgen.lag_ms_max"] = ms(r.lagMax)
	v["loadgen.job_s_p90"] = percentile(lat, 90)
}

// checkpointLayer times uavnet.SaveCheckpoint, the call each uavserve slice
// makes, on a checkpoint of the first s = 3 job stopped halfway through its
// enumeration, written three times into a job directory on the same disk.
func checkpointLayer(ctx context.Context, e *env, jobs []*job, out *runOutput) error {
	for _, j := range jobs {
		if j.repeats >= 0 || j.s != 3 {
			continue
		}
		in, err := uavnet.NewInstance(j.scenario)
		if err != nil {
			return err
		}
		dep, err := uavnet.DeployInstanceContext(ctx, in, uavnet.Options{S: 3, StopAfter: 3500})
		if err != nil {
			return err
		}
		if dep.Checkpoint == nil {
			return fmt.Errorf("stopped run returned no checkpoint")
		}
		dir := filepath.Join(e.work, "ckpt")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, "checkpoint.json")
		var writes []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := uavnet.SaveCheckpoint(path, dep.Checkpoint); err != nil {
				return err
			}
			writes = append(writes, ms(time.Since(start)))
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		out.values["server.checkpoint_write_ms"] = median(writes)
		out.values["server.checkpoint_bytes"] = float64(fi.Size())
		return nil
	}
	return fmt.Errorf("no s = 3 job in the schedule")
}

// perLayerNames lists every per-layer metric; a traced run starts them all
// at zero, which is the value of a layer the workload does not reach.
var perLayerNames = []string{
	"match.gain_us", "match.commit_us", "match.bound_ns", "cpu.match",
	"matroid.greedy_self_us", "matroid.gain_queries", "matroid.bound_skips", "matroid.gain_hit_ratio", "cpu.matroid",
	"graph.bfs_us", "graph.connect_us", "graph.relays_per_subset", "cpu.graph",
	"core.solve_ms", "core.evaluate_us", "core.subsets_evaluated", "core.subsets_pruned", "core.prune_ratio", "core.feasible_ratio", "cpu.core",
	"core.instance_ms", "core.aggregate_ms", "core.demand_nodes",
	"portfolio.race_ms", "portfolio.evals", "portfolio.evals_per_s", "cpu.portfolio",
	"assign.final_ms", "cpu.assign_flow",
	"scenario_io.read_ms", "scenario_io.decode_ms", "scenario_io.bytes", "cpu.json",
	"verify.check_ms",
	"persist.encode_ms", "persist.write_ms", "persist.bytes",
	"server.submit_ms", "server.queue_wait_ms", "server.run_ms", "server.result_ms", "server.dedupe_hits",
	"server.checkpoint_write_ms", "server.checkpoint_bytes",
	"cpu.runtime_gc", "cpu.samples", "loadgen.lag_ms_max", "loadgen.job_s_p90", "trace.overhead_frac",
}
