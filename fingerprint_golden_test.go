package uavnet_test

import (
	"fmt"
	"math"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// TestFingerprintGolden pins Scenario.Fingerprint and the aggregated
// Instance.Fingerprint of fixed-seed scenarios to their published values.
// Checkpoints, shard partials and server job ids are keyed on them, so a
// change here orphans every saved run: the values must never move.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      uavnet.ScenarioSpec
		aggCell   float64
		fp, aggFP string
	}{
		{"continuous", uavnet.ScenarioSpec{N: 3000, K: 20, Seed: 1}, 500,
			"2ef2ad1758468ed2", "aaffc187b79b969c"},
		{"snapped", uavnet.ScenarioSpec{N: 5000, K: 10, CMin: 150, CMax: 200, SnapSide: 250, Seed: 2}, 250,
			"99b4fc98e62f3ade", "173c184e89691fa4"},
		{"uniform", uavnet.ScenarioSpec{AreaSide: 3000, CellSide: 500, N: 600, K: 10, CMin: 20, CMax: 120,
			Distribution: uavnet.UniformUsers, Seed: 3}, 500,
			"16929d4d21b76c34", "44475e6c1cdd7e0b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := uavnet.GenerateScenario(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", sc.Fingerprint()); got != tc.fp {
				t.Errorf("Scenario.Fingerprint = %s, want %s", got, tc.fp)
			}
			afp, err := uavnet.AggregateFingerprint(sc, uavnet.AggregateOptions{CellSide: tc.aggCell})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", afp); got != tc.aggFP {
				t.Errorf("aggregated Instance.Fingerprint = %s, want %s", got, tc.aggFP)
			}
		})
	}

	// Edge floats and non-ASCII names, which only hand-built scenarios hold.
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{N: 4, K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sc.Users[0].Pos.X, sc.Users[0].Pos.Y = math.Copysign(0, -1), 1e21
	sc.Users[1].Pos.X, sc.Users[1].Pos.Y = 1e-7, 5e-324
	sc.Users[2].Pos.X, sc.Users[2].Pos.Y = math.MaxFloat64, math.Inf(1)
	sc.Users[3].Pos.X, sc.Users[3].Pos.Y = math.Inf(-1), math.NaN()
	sc.Users[3].MinRateBps = 123456789012345678
	sc.UAVs[0].Name = "M600-α"
	sc.UAVs[1].UserRange = 0.1
	if got, want := fmt.Sprintf("%016x", sc.Fingerprint()), "a426637367d402d0"; got != want {
		t.Errorf("edge-value Scenario.Fingerprint = %s, want %s", got, want)
	}
}
