//go:build race

package main

// raceSlowdown scales the smoke test's time budget: the race detector
// makes the solver several times slower.
const raceSlowdown = 6
