package core

import (
	"github.com/uav-coverage/uavnet/internal/assign"
	"github.com/uav-coverage/uavnet/internal/match"
)

// referenceEngine runs the placement oracle on assign.Evaluator, the
// Dinic-backed exact assignment, instead of the incremental matcher. Its
// GainBound is the static min(capacity, eligible count) bound; any sound
// bound leaves the lazy greedy's selection unchanged, so a SubsetEvaluator
// on this engine must agree with the matcher's subset for subset.
type referenceEngine struct{ *assign.Evaluator }

func (referenceEngine) GainBound(capacity int, eligMask match.Bitset) int {
	if n := eligMask.Count(); n < capacity {
		return n
	}
	return capacity
}

// newReferenceOracle is newPlacementOracle on the reference engine. The
// Dinic evaluator scores unit users, so only per-user instances qualify.
func newReferenceOracle(in *Instance, caps []int) (*placementOracle, error) {
	ev, err := assign.NewEvaluator(in.Scenario.N(), len(caps))
	if err != nil {
		return nil, err
	}
	return &placementOracle{in: in, caps: caps, engine: referenceEngine{ev}}, nil
}

// NewReferenceSubsetEvaluator is NewSubsetEvaluator with the placement
// oracle on the Dinic reference engine: the other side of the per-subset
// differential.
func NewReferenceSubsetEvaluator(in *Instance, opts Options) (*SubsetEvaluator, error) {
	ev, err := NewSubsetEvaluator(in, opts)
	if err != nil {
		return nil, err
	}
	if ev.oracle, err = newReferenceOracle(in, ev.caps); err != nil {
		return nil, err
	}
	return ev, nil
}
