package uavnet

import (
	"github.com/uav-coverage/uavnet/internal/core"
)

// Demand-aggregation types, re-exported from internal/core. Aggregation
// coarsens a scenario's users into weighted demand cells — one node per
// (demand-grid cell, minimum-rate class) — so subset evaluation scales with
// the number of occupied cells instead of the number of users. A
// million-user scenario on the paper's 3 km area collapses to a few hundred
// demand nodes and solves in seconds; see DESIGN.md §12.
type (
	// AggregateOptions configure the demand grid (cell side).
	AggregateOptions = core.AggOptions
	// Demand is a scenario's users binned into weighted demand cells.
	Demand = core.Demand
	// DemandCell is one weighted demand node with its member users.
	DemandCell = core.DemandCell
)

// Aggregate bins the scenario's users into weighted demand cells without
// building an instance. Most callers want NewAggregateInstance instead.
func Aggregate(sc *Scenario, opts AggregateOptions) (*Demand, error) {
	return core.Aggregate(sc, opts)
}

// NewAggregateInstance precomputes a demand-aggregated instance: Solve,
// EvaluatePlacement, Verify, gateway helpers and checkpoints all accept it,
// and every returned Deployment still carries a full per-user assignment
// (demand is expanded back to individuals deterministically).
//
// Aggregated eligibility is conservative, so the deployment always satisfies
// every individual user's rate and range constraints; when each demand
// cell's members are co-located (e.g. generated with a snap grid), the
// aggregated solve is exactly the per-user solve. RefineAssignment,
// DeployOptimal and the baselines require per-user instances and reject
// aggregated ones with an error.
func NewAggregateInstance(sc *Scenario, opts AggregateOptions) (*Instance, error) {
	return core.NewAggregateInstance(sc, opts)
}

// AggregateFingerprint returns the fingerprint an aggregated instance of the
// scenario would carry — what checkpoint files are keyed on — without the
// topology precomputation (O(n) binning only).
func AggregateFingerprint(sc *Scenario, opts AggregateOptions) (uint64, error) {
	return core.AggregateFingerprint(sc, opts)
}
