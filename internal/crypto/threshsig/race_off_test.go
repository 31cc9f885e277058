//go:build !race

package threshsig

// raceEnabled reports that the race detector is not active; see
// race_on_test.go.
const raceEnabled = false
