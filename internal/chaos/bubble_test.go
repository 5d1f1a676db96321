//go:build goexperiment.synctest

package chaos

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/synctest"
)

// TestBubbled runs the in-process fault tests, each as a subtest inside
// its own testing/synctest bubble: time.Sleep, timers and time.Now are
// virtual there, and time moves only when every goroutine in the bubble
// waits, so no result depends on the host's speed. Without
// GOEXPERIMENT=synctest the same bodies run on the wall clock as ordinary
// tests. The equivalence suites stay out: their subtests call t.Parallel,
// and a parallel subtest waits on the test runner's semaphore, a channel
// from outside the bubble, so the bubble's clock cannot move while one
// waits. Run it with
//
//	GOEXPERIMENT=synctest go test -run '^TestBubbled$' ./internal/chaos
func TestBubbled(t *testing.T) {
	for _, f := range []func(*testing.T){
		TestFIFOPreservedUnderFaults,
		TestScheduleReproducible,
		TestWrapAppliesLinkShapes,
		TestBurstArrivesInOneLatency,
		TestLinkDueTimesMatchSocketPump,
		TestBaselinePassThrough,
		TestCloseSafety,
		TestCloseWhileDelayingLeaksNothing,
		TestSchedulesDistinct,
		TestDiskCrashCheckCatchesDurablePrefixDamage,
		TestDiskCrashCheckComparesBatches,
		TestDiskScheduleRequiresReliable,
		TestDispatchPathEquivalenceInserts,
		TestDiskFaultDispatchPathEquivalence,
		TestSpecStringIncludesStorageDelay,
		TestNegativeInputOrderCaught,
		TestNegativeRoutingOrderCaught,
		TestConservationAcrossSchedules,
		TestRunRejectsUnknownSpecs,
		TestLeaderKillScheduleRequiresStandbys,
		TestLossyScheduleSeedReproducible,
	} {
		name := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
		synctest.Run(func() { t.Run(name[strings.LastIndex(name, ".")+1:], f) })
	}
}
