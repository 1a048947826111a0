package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
)

// TestFingerprintRecordsMatchFmt pins the fingerprint byte-format contract:
// appendUserFP and appendUAVFP write exactly what the fmt verbs in the
// Fingerprint doc comment write, on the floats where %v formatting has
// edge cases (signed zero, exponent switch-over points, infinities, NaN,
// subnormals, extremes) and on random bit patterns.
func TestFingerprintRecordsMatchFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 2000, 125, 1234.5678901234567,
		1e20, 1e21, 123456, 1234567, 999999, 1e6, 1e-4, 1e-5, 1e-7, 0.000123,
		math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1 << 53, 1<<53 + 2, -123456789012345678,
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		floats = append(floats, math.Float64frombits(r.Uint64()), r.Float64()*3000)
	}
	names := []string{"", "uav-0", "M600-α", "a,b;c", "%v"}
	for i, x := range floats {
		for j, y := range floats {
			z := floats[(i+j)%len(floats)]
			u := User{Pos: geom.Point2{X: x, Y: y}, MinRateBps: z}
			want := fmt.Sprintf("u%v,%v,%v;", u.Pos.X, u.Pos.Y, u.MinRateBps)
			if got := string(appendUserFP(nil, u)); got != want {
				t.Fatalf("appendUserFP(%v) = %q, fmt writes %q", u, got, want)
			}
			k := UAV{
				Name:      names[(i*len(floats)+j)%len(names)],
				Capacity:  i*1000 - j*j*j*j,
				Tx:        channel.Transmitter{PowerDBm: x, AntennaGainDBi: y},
				UserRange: z,
			}
			want = fmt.Sprintf("k%s,%d,%v,%v;", k.Name, k.Capacity, k.Tx, k.UserRange)
			if got := string(appendUAVFP(nil, k)); got != want {
				t.Fatalf("appendUAVFP(%+v) = %q, fmt writes %q", k, got, want)
			}
		}
	}
}
