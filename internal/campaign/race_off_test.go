//go:build !race

package campaign_test

// raceDetector reports a build with the race detector (see race_on_test.go).
const raceDetector = false
