//go:build race

package schedule

// raceEnabled thins the solver-configuration matrix of
// TestStage2LexInvariance and the seeds of TestRETProbeAnswers: the
// properties are sequential arithmetic, which the race detector only makes
// an order of magnitude slower.
const raceEnabled = true
