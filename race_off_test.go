//go:build !race

package uavnet_test

// raceEnabled mirrors the -race build flag; see race_on_test.go.
const raceEnabled = false
