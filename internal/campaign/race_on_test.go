//go:build race

package campaign_test

// raceDetector reports a build with the race detector, which slows a
// replay some twentyfold: the longest tests run a smaller input there.
const raceDetector = true
