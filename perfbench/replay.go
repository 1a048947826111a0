package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/match"
	"github.com/uav-coverage/uavnet/internal/matroid"
)

// replaySubsets is how many anchor subsets the traced run replays per
// operation.
const replaySubsets = 200

// replay re-runs a seeded sample of anchor subsets through the layers below
// core.SubsetEvaluator, calling their public functions in the evaluator's
// order and timing each call: multi-source BFS, the lazy greedy driven by a
// counting oracle over the matcher, the MST connector with the path oracle,
// and, once per operation, the final assignment. Every replayed subset must
// reproduce the evaluator's feasibility and greedy selection exactly, or the
// run fails: the counts then describe the code that actually runs.
type replay struct {
	timerOverhead time.Duration

	subsets, feasible                   int64
	gains, commits, bounds, skips       int64
	gainT, commitT, boundT, greedySelfT time.Duration
	bfsT, connectT, evaluateT           time.Duration
	greedyRuns, connects, relays        int64
	finalT                              []float64
}

func newReplay() *replay { return &replay{timerOverhead: timerOverhead()} }

// timerOverhead is the median cost of one time.Now/time.Since pair, which
// every timed call pays and which is subtracted from each call's time.
func timerOverhead() time.Duration {
	var ds []float64
	for i := 0; i < 1001; i++ {
		t0 := time.Now()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

// countingOracle is the placement oracle core builds for the greedy
// (match.Matcher on per-user instances, match.WeightedMatcher on aggregated
// ones), rebuilt from public fields, with every call counted and timed. It
// implements matroid.Oracle, Bounder and DynamicBounder exactly as core's
// does, so matroid.LazyRunner makes the same selection.
type countingOracle struct {
	r    *replay
	in   *uavnet.Instance
	caps []int
	m    *match.Matcher
	wm   *match.WeightedMatcher

	// A RoundBound call the runner does not follow with Gain on the same
	// (round, element) is a bound skip: the cheap bound re-keyed the element
	// and saved an exact evaluation.
	pending            bool
	pendRound, pendLoc int
}

func (o *countingOracle) reset() error {
	o.pending = false
	if o.wm != nil {
		return o.wm.Reset()
	}
	return o.m.Reset()
}

func (o *countingOracle) settle() {
	if o.pending {
		o.r.skips++
		o.pending = false
	}
}

func (o *countingOracle) eligible(round, loc int) []int {
	return o.in.EligibleUsers(o.in.ByCapacity[round], loc)
}

func (o *countingOracle) Gain(round, loc int) (int, error) {
	if o.pending && o.pendRound == round && o.pendLoc == loc {
		o.pending = false
	}
	o.settle()
	el := o.eligible(round, loc)
	t0 := time.Now()
	var g int
	var err error
	if o.wm != nil {
		g, err = o.wm.Gain(o.caps[round], el)
	} else {
		g, err = o.m.Gain(o.caps[round], el)
	}
	o.r.gainT += time.Since(t0)
	o.r.gains++
	return g, err
}

func (o *countingOracle) Commit(round, loc int) (int, error) {
	o.settle()
	el := o.eligible(round, loc)
	t0 := time.Now()
	var g int
	var err error
	if o.wm != nil {
		g, err = o.wm.Commit(o.caps[round], el)
	} else {
		g, err = o.m.Commit(o.caps[round], el)
	}
	o.r.commitT += time.Since(t0)
	o.r.commits++
	return g, err
}

// eligTotal is the eligible demand of a class at a location.
func (o *countingOracle) eligTotal(class, loc int) int {
	if o.in.EligWeight != nil {
		return o.in.EligWeight[class][loc]
	}
	return len(o.in.Eligible[class][loc])
}

func (o *countingOracle) Bound(loc int) int {
	return min(o.caps[0], o.eligTotal(o.in.ClassOf[o.in.ByCapacity[0]], loc))
}

func (o *countingOracle) RoundBound(round, loc int) int {
	o.settle()
	o.pending, o.pendRound, o.pendLoc = true, round, loc
	mask := o.in.EligMask[o.in.ClassOf[o.in.ByCapacity[round]]][loc]
	t0 := time.Now()
	var b int
	if o.wm != nil {
		b = o.wm.GainBound(o.caps[round], mask)
	} else {
		b = o.m.GainBound(o.caps[round], mask)
	}
	o.r.boundT += time.Since(t0)
	o.r.bounds++
	return b
}

// run replays one operation's instance.
func (r *replay) run(ctx context.Context, op *opStats, seed int64) error {
	in := op.in
	sc := in.Scenario
	k, m := sc.K(), sc.M()
	opts := op.opts
	opts.Solver, opts.SolverBudget, opts.Seed = "", 0, 0
	ev, err := core.NewSubsetEvaluator(in, opts)
	if err != nil {
		return err
	}
	s := ev.S()
	budget := ev.Budget()
	q := core.QValues(budget.LMax, budget.P)
	caps := make([]int, k)
	for i, uav := range in.ByCapacity {
		caps[i] = sc.UAVs[uav].Capacity
	}
	o := &countingOracle{r: r, in: in, caps: caps}
	if in.Aggregated() {
		o.wm, err = match.NewWeightedMatcher(in.Weights, k)
	} else {
		o.m, err = match.NewMatcher(sc.N(), k)
	}
	if err != nil {
		return err
	}
	st := &subsetState{
		rounds: budget.LMax, k: k, hmax: len(q) - 1,
		dist: make([]int, m), queue: make([]int, 0, m), qCounts: make([]int, len(q)),
		o: o,
	}
	m2 := matroid.HopCount{Dist: st.dist, Q: q}
	st.feasible = func(sel []int, e int) bool { return m2.CanAddInto(sel, e, st.qCounts) }
	rng := rand.New(rand.NewSource(seed))
	anchors := make([]int, s)

	for n := 0; n < replaySubsets; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, c := range rng.Perm(m)[:s] {
			anchors[i] = c
		}
		sort.Ints(anchors)
		r.subsets++

		t0 := time.Now()
		res, err := ev.Evaluate(anchors)
		r.evaluateT += time.Since(t0) - r.timerOverhead
		if err != nil {
			return err
		}
		ok, selected, err := r.replaySubset(in, anchors, st)
		if err != nil {
			return err
		}
		if ok != res.Feasible {
			return fmt.Errorf("anchors %v: replay feasible=%v, evaluator %v", anchors, ok, res.Feasible)
		}
		if !ok {
			continue
		}
		r.feasible++
		if !equalInts(selected, res.Locs[:res.NSel]) {
			return fmt.Errorf("anchors %v: replay selected %v, evaluator %v", anchors, selected, res.Locs[:res.NSel])
		}
	}
	if !in.Aggregated() {
		return r.finalAssignment(op)
	}
	return nil
}

// subsetState is the replay's reusable working memory for one instance.
type subsetState struct {
	rounds, k, hmax int
	dist, queue     []int
	qCounts         []int
	ground, nodes   []int
	path            []int
	feasible        func(selected []int, e int) bool
	o               *countingOracle
	runner          matroid.LazyRunner
	mst             graph.MSTScratch
}

// replaySubset is one subset through the evaluator's steps. It reports
// whether the subset is feasible and, if so, the greedy's selection.
func (r *replay) replaySubset(in *uavnet.Instance, anchors []int, st *subsetState) (bool, []int, error) {
	ovh := r.timerOverhead
	// The sound prune: anchors in different components, or needing more
	// than K nodes to connect, are never evaluated.
	maxHop := 0
	for i := range anchors {
		for j := i + 1; j < len(anchors); j++ {
			d := in.Hop[anchors[i]][anchors[j]]
			if d == graph.Unreachable {
				return false, nil, nil
			}
			maxHop = max(maxHop, d)
		}
	}
	if maxHop+1 > st.k {
		return false, nil, nil
	}

	t0 := time.Now()
	st.queue = in.LocGraph.MultiSourceBFSInto(anchors, st.dist, st.queue)
	r.bfsT += time.Since(t0) - ovh

	st.ground = st.ground[:0]
	for loc, d := range st.dist {
		if d != graph.Unreachable && d <= st.hmax {
			st.ground = append(st.ground, loc)
		}
	}
	if err := st.o.reset(); err != nil {
		return false, nil, err
	}
	calls := r.gains + r.commits + r.bounds
	oracleT := r.gainT + r.commitT + r.boundT
	t0 = time.Now()
	selected, err := st.runner.Run(st.ground, st.rounds, st.feasible, st.o)
	runT := time.Since(t0)
	st.o.settle()
	if err != nil {
		return false, nil, err
	}
	calls = r.gains + r.commits + r.bounds - calls
	oracleT = r.gainT + r.commitT + r.boundT - oracleT
	r.greedySelfT += runT - oracleT - time.Duration(calls)*ovh
	r.greedyRuns++
	if len(selected) == 0 {
		return false, nil, nil
	}

	// Connect the selection: MST over the hop metric, each tree edge
	// expanded through the path oracle.
	t0 = time.Now()
	nodes, err := st.connect(in, selected)
	r.connectT += time.Since(t0) - ovh
	r.connects++
	if err != nil {
		return false, nil, err
	}
	if len(nodes) > st.k {
		return false, nil, nil
	}
	r.relays += int64(len(nodes) - len(selected))
	return true, selected, nil
}

// connect returns the distinct nodes of the selection's connecting subgraph.
func (st *subsetState) connect(in *uavnet.Instance, selected []int) ([]int, error) {
	nodes := append(st.nodes[:0], selected...)
	if len(selected) > 1 {
		tree, _, err := st.mst.CompleteHopMST(in.Hop, selected)
		if err != nil {
			return nil, err
		}
		for _, e := range tree {
			st.path = in.Paths.PathInto(selected[e.U], selected[e.V], st.path)
			if st.path == nil {
				return nil, fmt.Errorf("no path between %d and %d", selected[e.U], selected[e.V])
			}
			nodes = append(nodes, st.path...)
		}
	}
	sort.Ints(nodes)
	uniq := nodes[:0]
	for i, v := range nodes {
		if i == 0 || v != nodes[i-1] {
			uniq = append(uniq, v)
		}
	}
	st.nodes = uniq
	return uniq, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finalAssignment times assign.Solve on the operation's final placement
// (the per-user final assignment) and requires it to serve exactly what the
// deployment reports.
func (r *replay) finalAssignment(op *opStats) error {
	in, dep := op.in, op.dep
	sc := in.Scenario
	p := assign.Problem{NumUsers: sc.N()}
	for _, uav := range in.ByCapacity {
		loc := dep.LocationOf[uav]
		if loc < 0 {
			break
		}
		p.Capacities = append(p.Capacities, sc.UAVs[uav].Capacity)
		p.Eligible = append(p.Eligible, in.EligibleUsers(uav, loc))
	}
	t0 := time.Now()
	a, err := assign.Solve(p)
	r.finalT = append(r.finalT, ms(time.Since(t0)))
	if err != nil {
		return err
	}
	if a.Served != dep.Served {
		return fmt.Errorf("final assignment serves %d, deployment reports %d", a.Served, dep.Served)
	}
	return nil
}

// record writes the replay's layer metrics: per-call means with the timer
// overhead subtracted, counts summed over every replayed subset.
func (r *replay) record(out *runOutput) {
	v := out.values
	per := func(d time.Duration, n int64, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d-time.Duration(n)*r.timerOverhead) / float64(n) / float64(unit)
	}
	v["match.gain_us"] = per(r.gainT, r.gains, time.Microsecond)
	v["match.commit_us"] = per(r.commitT, r.commits, time.Microsecond)
	v["match.bound_ns"] = per(r.boundT, r.bounds, time.Nanosecond)
	v["matroid.greedy_self_us"] = per(r.greedySelfT, r.greedyRuns, time.Microsecond)
	v["matroid.gain_queries"] = float64(r.gains)
	v["matroid.bound_skips"] = float64(r.skips)
	if r.gains > 0 {
		v["matroid.gain_hit_ratio"] = float64(r.commits) / float64(r.gains)
	}
	v["graph.bfs_us"] = per(r.bfsT, r.greedyRuns, time.Microsecond)
	v["graph.connect_us"] = per(r.connectT, r.connects, time.Microsecond)
	if r.feasible > 0 {
		v["graph.relays_per_subset"] = float64(r.relays) / float64(r.feasible)
	}
	v["core.evaluate_us"] = per(r.evaluateT, r.subsets, time.Microsecond)
	if r.subsets > 0 {
		v["core.feasible_ratio"] = float64(r.feasible) / float64(r.subsets)
	}
	v["assign.final_ms"] = median(r.finalT)
	out.extra["replay_subsets"] = float64(r.subsets)
	out.extra["replay_commits"] = float64(r.commits)
	out.extra["replay_bound_calls"] = float64(r.bounds)
	out.extra["timer_overhead_ns"] = float64(r.timerOverhead)
}
