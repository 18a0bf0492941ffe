// Walltime fixtures: clock reads and math/rand fire inside the
// deterministic engine; annotated exceptions and clock-free time APIs do
// not.
package core

import (
	"math/rand" // want `import of math/rand in deterministic engine package`
	"time"
)

func clockReads() int64 {
	t0 := time.Now() // want `time\.Now in deterministic engine package`
	_ = rand.Int()
	return time.Since(t0).Nanoseconds() // want `time\.Since in deterministic engine package`
}

func annotatedClock() time.Time {
	return time.Now() //fmossim:nondeterminism-ok fixture: an annotated clock read with a reason is accepted
}

func clockFreeTimeAPIsAreFine(d time.Duration) time.Duration {
	return d * time.Second / time.Millisecond
}
