//go:build race

package uavnet_test

// raceEnabled mirrors the -race build flag so allocation-count gates can
// skip themselves: the race detector randomly drops sync.Pool entries (fmt
// pools its printers), which makes allocation counts nondeterministic.
const raceEnabled = true
