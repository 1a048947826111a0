package core

import (
	"math/rand"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
)

// benchInstance builds a mid-size random instance (8x8 grid, 60 users, 8
// heterogeneous UAVs) comparable to one paper data point, an evaluator for
// it, and the first anchor subset (with its enumeration index) that survives
// pruning and yields a feasible deployment, so every benchmark iteration
// runs the full evaluation body.
func benchInstance(b *testing.B, s int) (ev *SubsetEvaluator, idx int64, anchors []int) {
	b.Helper()
	r := rand.New(rand.NewSource(9))
	sc := &Scenario{
		Grid:     geom.Grid{Length: 4000, Width: 4000, Side: 500, Altitude: 300},
		UAVRange: 750,
		Channel:  channel.DefaultParams(),
	}
	for i := 0; i < 60; i++ {
		sc.Users = append(sc.Users, User{
			Pos: geom.Point2{X: r.Float64() * 4000, Y: r.Float64() * 4000},
		})
	}
	for k := 0; k < 8; k++ {
		sc.UAVs = append(sc.UAVs, UAV{
			Capacity:  3 + r.Intn(8),
			Tx:        channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
			UserRange: 400 + float64(r.Intn(3))*200,
		})
	}
	in, err := NewInstance(sc)
	if err != nil {
		b.Fatal(err)
	}
	ev, err = NewSubsetEvaluator(in, Options{S: s})
	if err != nil {
		b.Fatal(err)
	}
	src := newSubsetSource(sc.M(), s, ev.opts, false)
	total, _ := subsetSpace(sc.M(), s, ev.opts)
	for idx = 0; idx < total; idx++ {
		sub, err := src.at(idx)
		if err != nil {
			b.Fatal(err)
		}
		res, ok, _, err := ev.evaluate(idx, sub)
		if err != nil {
			b.Fatal(err)
		}
		if ok && res.served > 0 {
			return ev, idx, append([]int(nil), sub...)
		}
	}
	b.Fatal("no feasible benchmark subset found")
	return
}

// BenchmarkSubsetEval measures one full anchor-subset evaluation (Algorithm 2
// lines 5-23). The scratch-reuse variant is the steady-state configuration of
// the parallel enumeration and should report ~zero allocs/op; the
// fresh-scratch variant re-creates the per-worker arenas every iteration,
// which is what the pre-arena implementation effectively paid per subset.
func BenchmarkSubsetEval(b *testing.B) {
	ev, idx, anchors := benchInstance(b, 3)

	b.Run("scratch-reuse", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, _, err := ev.evaluate(idx, anchors); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})

	b.Run("fresh-scratch", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh, err := NewSubsetEvaluator(ev.in, ev.opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok, _, err := fresh.evaluate(idx, anchors); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}

// BenchmarkConnectLocations isolates the relay-connection step (Algorithm 2
// lines 13-15): MST edges and paths come from the instance's precomputed hop
// matrix and path oracle.
func BenchmarkConnectLocations(b *testing.B) {
	ev, _, _ := benchInstance(b, 3)
	// A spread-out selection so the MST has real paths to expand.
	m := ev.in.Scenario.M()
	selected := []int{0, m / 3, 2 * m / 3, m - 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.scr.connectLocations(ev.in, selected); err != nil {
			b.Fatal(err)
		}
	}
}
