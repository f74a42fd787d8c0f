//go:build race

package schedule

// raceEnabled thins the solver-configuration matrix of
// TestStage2LexInvariance: the property is sequential arithmetic, which the
// race detector only makes an order of magnitude slower.
const raceEnabled = true
