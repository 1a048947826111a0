package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/verify"
)

// TestOracleEquivalence is the per-subset differential between the
// production placement engine (the incremental matcher) and the Dinic
// reference (assign.Evaluator): on every differential seed, every anchor
// subset of the s=2 enumeration must evaluate to the same result through
// both — feasibility, served count, slot locations and greedy prefix — and
// the enumeration winner must build the same deployment through both.
func TestOracleEquivalence(t *testing.T) {
	t.Parallel()
	seeds := int64(60)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			sc, err := verify.RandomScenario(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			in, err := core.NewInstance(sc)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			opts := core.Options{S: 2, Workers: 2}
			fast, err := core.NewSubsetEvaluator(in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ref, err := core.NewReferenceSubsetEvaluator(in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			forEachSubset(sc.M(), fast.S(), func(anchors []int) {
				got, err := fast.Evaluate(anchors)
				if err != nil {
					t.Fatalf("seed %d: matcher %v: %v", seed, anchors, err)
				}
				// got.Locs aliases the matcher's scratch; ref has its own.
				want, err := ref.Evaluate(anchors)
				if err != nil {
					t.Fatalf("seed %d: reference %v: %v", seed, anchors, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: subset %v: engines diverge:\nmatcher:   %+v\nreference: %+v", seed, anchors, got, want)
				}
			})

			dep, err := core.Approx(context.Background(), in, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got, err := fast.BuildDeployment(dep.Anchors)
			if err != nil {
				t.Fatalf("seed %d: matcher: %v", seed, err)
			}
			want, err := ref.BuildDeployment(dep.Anchors)
			if err != nil {
				t.Fatalf("seed %d: reference: %v", seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: best subset %v builds different deployments:\nmatcher:   %+v\nreference: %+v", seed, dep.Anchors, got, want)
			}
		})
	}
}

// forEachSubset calls fn with every sorted s-subset of [0, m); the slice is
// reused between calls.
func forEachSubset(m, s int, fn func([]int)) {
	a := make([]int, s)
	var rec func(i, from int)
	rec = func(i, from int) {
		if i == s {
			fn(a)
			return
		}
		for c := from; c <= m-(s-i); c++ {
			a[i] = c
			rec(i+1, c+1)
		}
	}
	rec(0, 0)
}
