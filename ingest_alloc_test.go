package uavnet_test

import (
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// TestIngestAllocsDoNotScaleWithUsers gates scenario ingest on allocation
// counts, which are deterministic, rather than on time: decoding and
// fingerprinting a scenario must not allocate per user. A hundredfold
// larger Users array may cost decoding a few more allocations (the
// presized slice and the remainder buffer are single allocations of any
// size) and the fingerprint none at all.
func TestIngestAllocsDoNotScaleWithUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 100,000-user scenario")
	}
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	small, smallData := ingestScenario(t, 1_000)
	large, largeData := ingestScenario(t, 100_000)
	decodeAllocs := func(data []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := uavnet.UnmarshalScenario(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	ds, dl := decodeAllocs(smallData), decodeAllocs(largeData)
	t.Logf("UnmarshalScenario allocs: %v at n=1000, %v at n=100000", ds, dl)
	if dl-ds > 40 {
		t.Errorf("UnmarshalScenario allocs grow with n: %v at n=1000, %v at n=100000 (allowed +40)", ds, dl)
	}
	fs := testing.AllocsPerRun(3, func() { _ = small.Fingerprint() })
	fl := testing.AllocsPerRun(3, func() { _ = large.Fingerprint() })
	t.Logf("Fingerprint allocs: %v at n=1000, %v at n=100000", fs, fl)
	if fs != fl {
		t.Errorf("Fingerprint allocs depend on n: %v at n=1000, %v at n=100000", fs, fl)
	}
}
