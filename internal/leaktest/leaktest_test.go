//go:build goexperiment.synctest

package leaktest

import (
	"testing"
	"testing/synctest"
)

// recorder is a testing.TB that records a failure instead of failing.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper()               {}
func (r *recorder) Errorf(string, ...any) { r.failed = true }

// TestCheckCountsOnlyTheBubble: inside a synctest bubble, a goroutine that
// starts outside the bubble during the test is not the test's leak, and
// one the test leaves running inside the bubble is.
func TestCheckCountsOnlyTheBubble(t *testing.T) {
	start, started, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(release)
	go func() {
		<-start
		go func() { <-release }()
		close(started)
		<-release
	}()
	synctest.Run(func() {
		r := &recorder{TB: t}
		check := Check(r)
		close(start)
		<-started
		check()
		if r.failed {
			t.Error("Check counted a goroutine outside the bubble")
		}

		r = &recorder{TB: t}
		check = Check(r)
		stuck := make(chan struct{})
		go func() { <-stuck }()
		check()
		if !r.failed {
			t.Error("Check missed a goroutine left running in the bubble")
		}
		close(stuck)
	})
}
