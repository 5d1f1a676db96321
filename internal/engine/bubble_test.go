//go:build goexperiment.synctest

package engine

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/synctest"
)

// TestBubbled runs the leader-failover and crash tests, each as a subtest
// inside its own testing/synctest bubble: time.Sleep, timers and time.Now
// are virtual there, and time moves only when every goroutine in the
// bubble waits, so no result depends on the host's speed. Without
// GOEXPERIMENT=synctest the same bodies run on the wall clock as ordinary
// tests. Run it with
//
//	GOEXPERIMENT=synctest go test -run '^TestBubbled$' ./internal/engine
func TestBubbled(t *testing.T) {
	for _, f := range []func(*testing.T){
		TestLeaderFailoverMatchesUninterrupted,
		TestLeaderFailoverBackToBack,
		TestLeaderFailoverKeepsSealedCount,
		TestLeaderCrashValidation,
		TestDrainDetailNamesStuckNode,
		TestDrainDetailNamesRefusedBatch,
		TestCrashRestartMatchesUninterrupted,
		TestCrashReturnsMigrationGauge,
		TestCrashNodeValidation,
		TestClusterCloseLeaksNothing,
	} {
		name := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
		synctest.Run(func() { t.Run(name[strings.LastIndex(name, ".")+1:], f) })
	}
}
