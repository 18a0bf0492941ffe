//go:build race

package server

// raceDetector reports a build with the race detector, whose shadow
// memory blurs allocation counts: the allocation pins skip there.
const raceDetector = true
