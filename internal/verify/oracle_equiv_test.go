package verify

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uav-coverage/uavnet/internal/core"
)

// TestOracleEquivalence checks the production placement engine against a
// from-scratch Dinic assignment through the public evaluator API: on every
// differential seed, the served count the evaluator reports for each anchor
// subset of the s=2 enumeration must be the optimum core.EvaluateFixed
// (assign.Solve) finds for the placement it returns, and the enumeration's
// deployment must be exactly the evaluator's rebuild of its winning subset.
// The engine-for-engine differential against the incremental Dinic
// reference, subset by subset, is internal/core's TestOracleEquivalence:
// the reference engine is visible only to that package's tests.
func TestOracleEquivalence(t *testing.T) {
	t.Parallel()
	seeds := int64(diffSeeds)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			sc, err := RandomScenario(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			in, err := core.NewInstance(sc)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			opts := core.Options{S: 2, Workers: 2}
			ev, err := core.NewSubsetEvaluator(in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			m, s := sc.M(), ev.S()
			anchors := make([]int, s)
			for i := range anchors {
				anchors[i] = i
			}
			for {
				res, err := ev.Evaluate(anchors)
				if err != nil {
					t.Fatalf("seed %d: subset %v: %v", seed, anchors, err)
				}
				if res.Feasible {
					locationOf := make([]int, sc.K())
					for uav := range locationOf {
						locationOf[uav] = -1
					}
					for slot, loc := range res.Locs {
						locationOf[in.ByCapacity[slot]] = loc
					}
					opt, err := core.EvaluateFixed(in, locationOf)
					if err != nil {
						t.Fatalf("seed %d: subset %v: %v", seed, anchors, err)
					}
					if res.Served != opt.Served {
						t.Fatalf("seed %d: subset %v: matcher served %d, Dinic optimum %d", seed, anchors, res.Served, opt.Served)
					}
				}
				// Next sorted subset in lexicographic order.
				i := s - 1
				for i >= 0 && anchors[i] == m-s+i {
					i--
				}
				if i < 0 {
					break
				}
				anchors[i]++
				for j := i + 1; j < s; j++ {
					anchors[j] = anchors[j-1] + 1
				}
			}

			dep, err := core.Approx(context.Background(), in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			rebuilt, err := ev.BuildDeployment(dep.Anchors)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			rebuilt.Algorithm = dep.Algorithm
			rebuilt.SubsetsEvaluated, rebuilt.SubsetsPruned = dep.SubsetsEvaluated, dep.SubsetsPruned
			rebuilt.Status = dep.Status
			if !reflect.DeepEqual(dep, rebuilt) {
				t.Fatalf("seed %d: enumeration and evaluator diverge on %v:\nApprox:  %+v\nrebuilt: %+v", seed, dep.Anchors, dep, rebuilt)
			}
		})
	}
}
