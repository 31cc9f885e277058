//go:build race

package threshsig

// raceEnabled reports that the race detector is active. Under it sync.Pool
// drops what it is given at random, so math/big's pooled division scratch
// is allocated afresh now and then, and an allocation count that divides
// is not exact.
const raceEnabled = true
