package core

import "fmt"

func errInfeasibleSubset(anchors []int) error {
	return fmt.Errorf("core: anchor subset %v is infeasible (disconnected or needs more than K nodes)", anchors)
}

// SubsetEvaluator exposes the allocation-free per-subset body of Algorithm 2
// (greedy placement under M1 /\ M2, MST relay connection, q_j <= K
// feasibility, leftover extension, exact scoring through the incremental
// matcher) as a reusable hook for search strategies other than enumeration —
// the metaheuristic portfolio evaluates its neighborhood moves through one of
// these, so a move costs the same few microseconds as one enumeration step
// instead of a from-scratch solve.
//
// An evaluator owns a placement oracle and a scratch arena, so it must not be
// shared between goroutines; each portfolio member builds its own.
type SubsetEvaluator struct {
	in     *Instance
	opts   Options
	s      int
	budget Budget
	caps   []int
	oracle *placementOracle
	scr    *evalScratch
	evals  int64
}

// EvalResult is one anchor subset's evaluation.
type EvalResult struct {
	// Feasible reports whether the subset yielded a deployable network
	// (connected anchors, greedy found members, q_j <= K). Infeasible
	// subsets leave the other fields zero.
	Feasible bool
	// Served is the exact optimally-served count for the placement.
	Served int
	// Locs is the location per sorted-capacity UAV slot. It aliases the
	// evaluator's scratch arena and is overwritten by the next Evaluate
	// call; copy it before retaining.
	Locs []int
	// NSel is the prefix of Locs chosen by the M1 /\ M2 greedy phase
	// (the rest are relays and leftover extensions).
	NSel int
}

// NewSubsetEvaluator prepares an evaluator for the instance. Options are
// interpreted as by Approx (S clamped via effectiveS, DisablePrune,
// GroundLeftovers and RequiredCells honored); enumeration-control fields
// (MaxSubsets, Shard, StopAfter, Resume) are ignored. Approx itself steps
// through one evaluator per worker.
func NewSubsetEvaluator(in *Instance, opts Options) (*SubsetEvaluator, error) {
	opts = opts.withDefaults()
	sc := in.Scenario
	k, m := sc.K(), sc.M()
	s, err := effectiveS(opts.S, k, m)
	if err != nil {
		return nil, err
	}
	budget, err := PlanBudget(k, s)
	if err != nil {
		return nil, err
	}
	q := QValues(budget.LMax, budget.P)
	caps := make([]int, k)
	for r, uav := range in.ByCapacity {
		caps[r] = sc.UAVs[uav].Capacity
	}
	oracle, err := newPlacementOracle(in, caps)
	if err != nil {
		return nil, err
	}
	return &SubsetEvaluator{
		in:     in,
		opts:   opts,
		s:      s,
		budget: budget,
		caps:   caps,
		oracle: oracle,
		scr:    newEvalScratch(in, q),
	}, nil
}

// S returns the effective anchor-subset size (requested S clamped to the
// instance).
func (e *SubsetEvaluator) S() int { return e.s }

// Budget returns the Algorithm 1 budget the evaluator scores under.
func (e *SubsetEvaluator) Budget() Budget { return e.budget }

// Evaluations returns how many Evaluate calls the evaluator has served —
// the unit the portfolio's run budget is counted in.
func (e *SubsetEvaluator) Evaluations() int64 { return e.evals }

// SetEvaluations overwrites the evaluation counter. Resuming a checkpointed
// portfolio member restores the counter so the remaining budget is exactly
// what the interrupted run had left.
func (e *SubsetEvaluator) SetEvaluations(n int64) { e.evals = n }

// Evaluate scores one anchor subset exactly as an enumeration step would.
// anchors must be sorted distinct cell indices of length S(). Subsets the
// enumeration would prune or find infeasible return Feasible == false; that
// is an answer, not an error. The result's Locs aliases scratch memory.
func (e *SubsetEvaluator) Evaluate(anchors []int) (EvalResult, error) {
	e.evals++
	res, ok, _, err := e.evaluate(0, anchors)
	if err != nil || !ok {
		return EvalResult{}, err
	}
	return EvalResult{Feasible: true, Served: res.served, Locs: res.locs, NSel: res.nsel}, nil
}

// BuildDeployment re-evaluates the subset and assembles the full Deployment
// (original UAV order, exact final assignment, Anchors and Budget set). The
// caller names the Algorithm. Infeasible subsets are an error here — callers
// hold a feasible best when they finalize.
func (e *SubsetEvaluator) BuildDeployment(anchors []int) (*Deployment, error) {
	res, err := e.Evaluate(anchors)
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, errInfeasibleSubset(anchors)
	}
	best := subsetResult{
		idx:    0,
		served: res.Served,
		locs:   append([]int(nil), res.Locs...),
		nsel:   res.NSel,
	}
	dep, err := finalizeDeployment(e.in, best)
	if err != nil {
		return nil, err
	}
	dep.Anchors = append([]int(nil), anchors...)
	dep.Budget = e.budget
	return dep, nil
}
