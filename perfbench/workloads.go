package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

// workload is one fixed input family. Every input derives from the run seed
// through inputSeed, so the same seed gives the same inputs and distinct
// inputs never share a seed (uavserve job ids are deterministic: a repeated
// scenario would turn the server workload into a dedupe-cache benchmark).
type workload struct {
	name string
	why  string
	// spec is the scenario shape; Seed is set per input.
	spec uavnet.ScenarioSpec
	// s, solver and budget are the solve options (uavdeploy -s, -solver,
	// -budget); aggCell is uavdeploy -agg-cell.
	s       int
	solver  string
	budget  int64
	aggCell float64
	// perSecond sets how many distinct inputs a run generates for each
	// second of -seconds: the inverse of one operation's time on the
	// reference box, so that one pass over the inputs fills the run.
	// minDistinct is the floor.
	perSecond   float64
	minDistinct int
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps int
	// serve, when set, makes this the uavserve open-loop workload.
	serve *serveMix
}

// serveMix is the uavserve traffic: an open loop of jobs at a fixed rate.
type serveMix struct {
	// rate is the arrival rate in jobs per second, about half the measured
	// capacity of the reference box (2 cores) for this mix.
	rate float64
	// bigShare is the share of fresh jobs solved at s = 3; the rest are s = 2.
	bigShare float64
	// resubmitShare is the share of arrivals that exactly repeat an earlier
	// job's request; the server answers them from its dedupe table.
	resubmitShare float64
	// minBack keeps a resubmission at least this many arrivals after the
	// job it repeats.
	minBack int
	// workers and checkpointEvery are the uavserve flags.
	workers         int
	checkpointEvery time.Duration
	// pollTick is the client's fixed GET /v1/jobs/{id} polling period.
	pollTick time.Duration
	// checkedBytes is how many results are byte-compared with an in-process
	// solve after the timed window.
	checkedBytes int
}

// fig6Spec is the reduced Fig. 6 point of the repository's Go benchmarks
// (3x3 km, 500 m cells -> m = 36, n = 600, K = 10, C in [20, 120]) with
// uniformly placed users. The paper's fat-tailed placement makes one
// scenario's solve time vary tenfold with the seed, which no run short
// enough to repeat could average out.
func fig6Spec() uavnet.ScenarioSpec {
	return uavnet.ScenarioSpec{
		AreaSide: 3000, CellSide: 500, N: 600, K: 10, CMin: 20, CMax: 120,
		Distribution: uavnet.UniformUsers,
	}
}

var workloads = []*workload{
	{
		name: "enum-fig6",
		why:  "paper algorithm at the reduced Fig. 6 point (m=36 n=600 K=10 s=3, uniform users), one uavdeploy run per scenario; matcher and lazy greedy do almost all work",
		spec: fig6Spec(), s: 3,
		perSecond: 2, minDistinct: 2, setupReps: 5,
	},
	{
		name: "portfolio-m900",
		why:  "100 m cells (m=900 n=600 K=10), -solver portfolio -budget 500: fixed-work metaheuristic race plus the O(m^2) hop/path precompute no other workload reaches",
		spec: func() uavnet.ScenarioSpec { p := fig6Spec(); p.CellSide = 100; return p }(),
		s:    3, solver: "portfolio", budget: 500,
		perSecond: 1.5, minDistinct: 2, setupReps: 5,
	},
	{
		name: "agg-1m",
		why:  "1,000,000 fat-tailed users snapped to 250 m, -agg-cell 250, K=20: 112 MB decode, aggregation, per-user verify and 10 MB write dominate; the matcher sees ~144 nodes",
		// A fleet of K=20 saturates on 1,000,000 users, so served users is
		// the fleet's total capacity; capacities in [150, 200] instead of
		// the paper's [50, 300] keep that total from swinging ±10% with
		// the seed.
		spec: uavnet.ScenarioSpec{N: 1_000_000, K: 20, CMin: 150, CMax: 200, SnapSide: 250},
		s:    3, aggCell: 250,
		perSecond: 0, minDistinct: 1, setupReps: 3,
	},
	{
		name:      "serve-open",
		why:       "uavserve open loop, 2 workers, 100 ms fsync'd checkpoints: mostly s=2 jobs, some s=3, a few exact resubmissions; HTTP, dedupe, queueing and checkpointing on the blocking path",
		spec:      fig6Spec(),
		perSecond: 0, minDistinct: 1, setupReps: 5,
		serve: &serveMix{
			rate: 4, bigShare: 0.15, resubmitShare: 0.1, minBack: 8,
			workers: 2, checkpointEvery: 100 * time.Millisecond,
			pollTick: 10 * time.Millisecond, checkedBytes: 4,
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown -workload %q (want one of %v)", name, names)
}

// distinct returns how many distinct CLI inputs a run of this length uses.
func (w *workload) distinct(seconds int) int {
	return max(w.minDistinct, int(math.Round(w.perSecond*float64(seconds))))
}

// params records the workload's parameters in result files.
func (w *workload) params(seconds int) map[string]any {
	p := map[string]any{
		"name": w.name, "area_m": w.spec.AreaSide, "cell_m": w.spec.CellSide,
		"n": w.spec.N, "k": w.spec.K, "cmin": w.spec.CMin, "cmax": w.spec.CMax,
		"distribution": distributionName(w.spec), "snap_m": w.spec.SnapSide,
		"s": w.s, "solver": w.solver, "budget": w.budget, "agg_cell_m": w.aggCell,
	}
	if w.serve == nil {
		p["distinct_inputs"] = w.distinct(seconds)
		return p
	}
	m := w.serve
	p["jobs"] = m.jobCount(seconds)
	p["rate_per_s"] = m.rate
	p["big_share"] = m.bigShare
	p["resubmit_share"] = m.resubmitShare
	p["server_workers"] = m.workers
	p["checkpoint_every"] = m.checkpointEvery.String()
	p["poll_tick"] = m.pollTick.String()
	return p
}

// scenario generates input i of the run.
func (w *workload) scenario(runSeed int64, i int) (*uavnet.Scenario, int64, error) {
	spec := w.spec
	spec.Seed = inputSeed(runSeed, w.name, i)
	sc, err := uavnet.GenerateScenario(spec)
	return sc, spec.Seed, err
}

// options are the in-process equivalent of the workload's uavdeploy flags
// (uavdeploy passes -seed to the solver RNGs only for -solver runs).
func (w *workload) options(scSeed int64) uavnet.Options {
	o := uavnet.Options{S: w.s, Solver: w.solver, SolverBudget: w.budget}
	if w.solver != "" {
		o.Seed = scSeed
	}
	return o
}

// deployArgs are the uavdeploy flags of one CLI operation.
func (w *workload) deployArgs(scenarioPath, outPath string, scSeed int64) []string {
	args := []string{"-scenario", scenarioPath, "-verify", "-out", outPath, "-map=false", "-s", strconv.Itoa(w.s)}
	if w.solver != "" {
		args = append(args, "-solver", w.solver, "-budget", strconv.FormatInt(w.budget, 10), "-seed", strconv.FormatInt(scSeed, 10))
	}
	if w.aggCell > 0 {
		args = append(args, "-agg-cell", strconv.FormatFloat(w.aggCell, 'g', -1, 64))
	}
	return args
}

// inputSeed derives input i's generator seed from the run seed and the
// workload name (splitmix64 finalizer), as a positive int64.
func inputSeed(runSeed int64, name string, i int) int64 {
	h := uint64(runSeed)
	for _, c := range []byte(name) {
		h = h*1099511628211 + uint64(c)
	}
	return int64(splitmix(splitmix(h)+uint64(i)) >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func distributionName(spec uavnet.ScenarioSpec) string {
	switch spec.Distribution {
	case uavnet.FatTailed:
		return "fat-tailed"
	case uavnet.UniformUsers:
		return "uniform"
	case uavnet.SingleHotspot:
		return "hotspot"
	}
	return fmt.Sprint(int(spec.Distribution))
}
