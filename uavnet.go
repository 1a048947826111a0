package uavnet

import (
	"context"
	"fmt"

	"github.com/uav-coverage/uavnet/internal/baseline"
	"github.com/uav-coverage/uavnet/internal/bruteforce"
	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/portfolio"
	"github.com/uav-coverage/uavnet/internal/solve"
	"github.com/uav-coverage/uavnet/internal/verify"
)

// Core model types, re-exported from the implementation packages. See the
// originals for field documentation.
type (
	// Scenario is one problem instance: area, users, fleet, radio.
	Scenario = core.Scenario
	// User is a ground user with a position and minimum data rate.
	User = core.User
	// UAV is one heterogeneous UAV with capacity and radio front-end.
	UAV = core.UAV
	// Instance is a Scenario with precomputed structures; reuse it across
	// algorithm runs on the same scenario.
	Instance = core.Instance
	// Deployment is an algorithm's output placement and user assignment.
	Deployment = core.Deployment
	// Options tune the approximation algorithm.
	Options = core.Options
	// Budget is Algorithm 1's output (L_max and segment sizes).
	Budget = core.Budget
	// Grid is the disaster area and its hovering-plane discretization.
	Grid = geom.Grid
	// Point is a planar position in meters.
	Point = geom.Point2
	// Transmitter is a base station radio front-end.
	Transmitter = channel.Transmitter
	// ChannelParams are the shared radio parameters.
	ChannelParams = channel.Params
	// Environment selects the air-to-ground propagation constants.
	Environment = channel.Environment
)

// Propagation environments from Al-Hourani et al.
var (
	Suburban   = channel.Suburban
	Urban      = channel.Urban
	DenseUrban = channel.DenseUrban
	Highrise   = channel.Highrise
)

// DefaultChannel returns the paper's radio parameters: 2 GHz carrier, urban
// environment, one 180 kHz OFDMA resource block per user.
func DefaultChannel() ChannelParams { return channel.DefaultParams() }

// NewInstance validates a scenario and precomputes the structures shared by
// every algorithm (location graph, hop distances, eligibility lists).
func NewInstance(sc *Scenario) (*Instance, error) { return core.NewInstance(sc) }

// Run-control types, re-exported from internal/core. A stopped run returns
// its best-so-far deployment tagged StatusStopped together with ctx.Err()
// and a RunCheckpoint that resumes it through Solve.
type (
	// RunStatus tags how an approAlg run ended (StatusComplete,
	// StatusStopped, or StatusPartial for sharded runs).
	RunStatus = core.RunStatus
	// RunProgress is the periodic snapshot delivered to Options.Progress.
	RunProgress = core.Progress
	// Checkpoint freezes a stopped enumeration for later resumption: the
	// Enum member of RunCheckpoint, and what MergeCheckpoints combines.
	Checkpoint = core.Checkpoint
	// ShardSpec names one shard of a sharded enumeration (Options.Shard):
	// shard Index of Count, covering a deterministic contiguous sub-range
	// of the index space.
	ShardSpec = core.ShardSpec
	// ShardRange tags a partial checkpoint with the shard that produced it.
	ShardRange = core.ShardRange
	// Span is a half-open range of enumeration indices, used by merged
	// checkpoints to list still-unprocessed sub-ranges.
	Span = core.Span
)

// Run statuses.
const (
	StatusComplete = core.StatusComplete
	StatusStopped  = core.StatusStopped
	StatusPartial  = core.StatusPartial
)

// MergeCheckpoints combines the partial checkpoints of a sharded run (same
// scenario, same options; ranges must tile the enumeration exactly) into the
// final deployment, byte-identical to an unsharded run's. When some shards
// are incomplete it returns a StatusStopped deployment whose Checkpoint is
// the merged resumable state instead (see core.MergeCheckpoints).
func MergeCheckpoints(in *Instance, opts Options, cps []*Checkpoint) (*Deployment, error) {
	return core.MergeCheckpoints(in, opts, cps)
}

// RunCheckpoint is the resumable state of a stopped Solve: exactly one of
// Enum (an enumeration or shard-pool run) and Portfolio (a metaheuristic
// race) is set. SaveRunCheckpoint and LoadRunCheckpoint move it to and from
// disk in the member's own JSON format.
type RunCheckpoint = solve.Checkpoint

// PortfolioCheckpoint freezes a stopped portfolio race (every member's RNG
// word, incumbent, best, and member-specific memory); the portfolio member
// of RunCheckpoint.
type PortfolioCheckpoint = portfolio.Checkpoint

// Solve runs the paper's Algorithm 2 on a precomputed instance and returns
// the best deployment found, plus a resumable checkpoint when the run stopped
// early. opts.Solver selects the search: the enumeration ("" or "enum"), or
// a budgeted metaheuristic ("anneal", "tabu", "grasp", "genetic", or
// "portfolio" to race all four; see the README's "Large m" section). With
// shards > 1 a fresh enumeration is split across an in-process shard pool;
// the result is byte-identical to the unsharded run. resume, when non-nil,
// continues a stopped run of the kind opts selects (a resume always runs
// unsharded) and finishes byte-identical to an uninterrupted run;
// opts.Resume must be nil.
//
// On cancellation or deadline the run stops promptly and returns its
// best-so-far deployment (Status StatusStopped) together with ctx.Err() and
// the checkpoint. Every metaheuristic deployment is re-checked by Verify
// before it is returned.
func Solve(ctx context.Context, in *Instance, opts Options, shards int, resume *RunCheckpoint) (*Deployment, *RunCheckpoint, error) {
	return solve.Run(ctx, in, opts, shards, resume)
}

// ValidateOptions reports the option combinations Solve rejects (a solver
// budget on the enumeration, shards or a subset cap on a metaheuristic, a
// gateway with either), so front ends can fail before loading any input.
// RequiredCells stands for a gateway constraint.
func ValidateOptions(opts Options, shards int) error { return solve.Validate(opts, shards) }

// SolverNames lists every Options.Solver value: "enum" (the paper's
// enumeration, also selected by the empty string), the four portfolio
// members, and "portfolio" to race all four.
func SolverNames() []string { return solve.SolverNames() }

// DeployInstanceContext is Solve without shards or resume, returning only
// the deployment; a stopped enumeration's checkpoint stays on
// dep.Checkpoint. It stays because the benchmark harness calls it.
func DeployInstanceContext(ctx context.Context, in *Instance, opts Options) (*Deployment, error) {
	dep, _, err := solve.Run(ctx, in, opts, 0, nil)
	return dep, err
}

// DeployPortfolioContext is Solve for a metaheuristic opts.Solver, resuming
// from a portfolio checkpoint when resume is non-nil. It stays because the
// benchmark harness calls it.
func DeployPortfolioContext(ctx context.Context, in *Instance, opts Options, resume *PortfolioCheckpoint) (*Deployment, *PortfolioCheckpoint, error) {
	var from *RunCheckpoint
	if resume != nil {
		from = &RunCheckpoint{Portfolio: resume}
	}
	dep, cp, err := solve.Run(ctx, in, opts, 0, from)
	if cp == nil {
		return dep, nil, err
	}
	return dep, cp.Portfolio, err
}

// AlgorithmNames lists every algorithm usable with DeployWithContext, the
// paper's approAlg first.
func AlgorithmNames() []string {
	return append([]string{"approAlg"}, baseline.Names()...)
}

// DeployWithContext runs the named algorithm — "approAlg" (Solve without
// shards or resume) or one of the baselines "MCS", "MotionCtrl",
// "GreedyAssign", "maxThroughput" — on the instance. The opts apply to
// approAlg only. Only approAlg supports mid-run cancellation and
// checkpointing; the baselines are single-pass and merely check the context
// before starting.
func DeployWithContext(ctx context.Context, name string, in *Instance, opts Options) (*Deployment, error) {
	if name == "approAlg" {
		return DeployInstanceContext(ctx, in, opts)
	}
	run, err := baseline.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("uavnet: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return run(in)
}

// DeployOptimal computes the exact optimum by exhaustive search. It is only
// usable on tiny instances (at most 16 candidate cells and 6 UAVs) and
// exists for validation and teaching.
func DeployOptimal(in *Instance) (*Deployment, error) {
	return bruteforce.Optimal(in)
}

// EvaluatePlacement scores a hand-chosen placement: locationOf[k] is the
// grid cell of UAV k, or -1 to keep UAV k grounded. The returned deployment
// carries the optimal user assignment for that placement. Connectivity of
// the placement is reported by Connected.
func EvaluatePlacement(in *Instance, locationOf []int) (*Deployment, error) {
	return core.EvaluateFixed(in, locationOf)
}

// Connected reports whether a deployment's UAV network is connected under
// the instance's UAV-to-UAV range.
func Connected(in *Instance, dep *Deployment) bool {
	return in.LocGraph.Connected(dep.DeployedLocations())
}

// Verification types, re-exported from internal/verify.
type (
	// VerifyReport lists every paper invariant a deployment violates; an
	// empty report (OK() == true) certifies feasibility.
	VerifyReport = verify.Report
	// VerifyViolation is one broken invariant with its constraint name.
	VerifyViolation = verify.Violation
	// VerifyConstraint names one checked invariant (capacity, min-rate,
	// connectivity, placement-M1, hop-budget-M2, node-budget, bookkeeping,
	// shape).
	VerifyConstraint = verify.Constraint
)

// Verify re-derives every constraint of the maximum connected coverage
// problem for a deployment — per-UAV capacity C_k, per-user minimum rate
// through the channel model, UAV-network connectivity within R_uav, the
// matroid structure of Algorithm 2, and internal bookkeeping — and returns
// the violations found. Use it as a feasibility oracle after any algorithm,
// refinement, or hand edit; an empty report certifies the deployment.
func Verify(in *Instance, dep *Deployment) VerifyReport {
	return verify.CheckDeployment(in, dep)
}

// Gateway is a ground anchor (emergency vehicle, satellite terminal) the
// network must reach to touch the Internet (Fig. 1 of the paper).
type Gateway = core.Gateway

// ConnectToGateway extends a deployment with a relay chain of grounded UAVs
// so that at least one UAV is within UAV range of the gateway. Deployments
// that already touch a gateway cell are returned unchanged.
func ConnectToGateway(in *Instance, dep *Deployment, gw Gateway) (*Deployment, error) {
	return core.ConnectToGateway(in, dep, gw)
}

// GatewayReachable reports whether a deployed UAV can relay to the gateway.
func GatewayReachable(in *Instance, dep *Deployment, gw Gateway) bool {
	return core.GatewayReachable(in, dep, gw)
}

// DeployToGatewayContext runs approAlg constrained so that the deployed
// network includes a cell within relay range of the gateway: the gateway's
// cells are injected as required anchors (Options.RequiredCells), so
// reachability is guaranteed by construction rather than patched afterwards.
// It fails if no candidate cell lies within UAV range of the gateway, and
// for a metaheuristic opts.Solver (see ValidateOptions). The stopped-run
// contract is Solve's.
func DeployToGatewayContext(ctx context.Context, in *Instance, gw Gateway, opts Options) (*Deployment, error) {
	cells := in.GatewayCells(gw)
	if len(cells) == 0 {
		return nil, fmt.Errorf("uavnet: no candidate cell within %g m of the gateway",
			in.Scenario.UAVRange)
	}
	opts.RequiredCells = cells
	return DeployInstanceContext(ctx, in, opts)
}

// RefineAssignment recomputes a deployment's user assignment so that it
// serves the same number of users but minimizes the total UAV-to-user
// pathloss (min-cost max-flow). It returns the refined deployment and the
// total pathloss in milli-dB — lower means higher average SNR and realized
// data rates for the same coverage.
func RefineAssignment(in *Instance, dep *Deployment) (*Deployment, int64, error) {
	return core.RefineAssignment(in, dep)
}

// TotalPathlossMilliDB sums the mean pathloss over a deployment's assigned
// links, the quantity RefineAssignment minimizes.
func TotalPathlossMilliDB(in *Instance, dep *Deployment) (int64, error) {
	return core.TotalPathlossMilliDB(in, dep)
}

// InterferenceReport audits a deployment under worst-case co-channel
// interference (every UAV on the same resource block).
type InterferenceReport = core.InterferenceReport

// AnalyzeInterference quantifies how optimistic the paper's
// interference-free SNR model is for a concrete deployment: it recomputes
// every served link's SINR with all other deployed UAVs as co-channel
// interferers and reports the rate loss and the users whose minimum rate
// would no longer hold without resource-block coordination.
func AnalyzeInterference(in *Instance, dep *Deployment) (InterferenceReport, error) {
	return core.AnalyzeInterference(in, dep)
}

// PlanBudget runs Algorithm 1: the largest greedy budget L_max and segment
// sizes whose worst-case relay bill stays within K UAVs, for anchor count s.
func PlanBudget(k, s int) (Budget, error) { return core.PlanBudget(k, s) }

// ApproxRatio returns the Theorem 1 approximation ratio
// 1/(3*ceil((2K-2)/L1)) = O(sqrt(s/K)) for K UAVs and anchor count s.
func ApproxRatio(k, s int) float64 { return core.ApproxRatio(k, s) }
