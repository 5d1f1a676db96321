// Package leaktest is a stdlib-only goroutine-leak check for Close paths:
// it snapshots the goroutine count before the test body and, in a deferred
// call, waits for the count to drain back down before declaring a leak.
// On the wall clock the count is process-wide, so tests using it must not
// run in parallel. Inside a testing/synctest bubble it counts only the
// bubble's goroutines: its drain then runs on the bubble's virtual clock,
// which would otherwise blame a goroutine outside the bubble that had no
// real time to exit.
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Check snapshots the current goroutine count and returns a function to
// defer: it polls until the count returns to the snapshot (goroutines
// legitimately wind down asynchronously after Close) and fails the test if
// it has not within five seconds, dumping all stacks.
func Check(t testing.TB) func() {
	t.Helper()
	count := runtime.NumGoroutine
	if group := bubble(); group != "" {
		count = func() int { return strings.Count(stacks(), group) }
	}
	before := count()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := count()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("leaktest: %d goroutines before, %d still running after 5s drain:\n%s",
					before, n, stacks())
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// bubble returns the marker the runtime prints in the stack header of
// every goroutine in the caller's synctest bubble (", synctest group N]"),
// or "" when the caller runs outside one.
func bubble() string {
	buf := make([]byte, 512)
	header, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), "\n")
	if i := strings.Index(header, ", synctest group "); i >= 0 {
		return strings.TrimSuffix(header[i:], ":")
	}
	return ""
}

// stacks returns every goroutine's stack.
func stacks() string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
