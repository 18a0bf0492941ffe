//go:build !race

package server

// raceDetector reports a build with the race detector (see
// race_on_test.go).
const raceDetector = false
