//go:build goexperiment.synctest

package network

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/synctest"
)

// TestBubbled runs the in-process link tests, each as a subtest inside
// its own testing/synctest bubble: time.Sleep, timers and time.Now are
// virtual there, and time moves only when every goroutine in the bubble
// waits, so no result depends on the host's speed. Without
// GOEXPERIMENT=synctest the same bodies run on the wall clock as ordinary
// tests. Run it with
//
//	GOEXPERIMENT=synctest go test -run '^TestBubbled$' ./internal/network
func TestBubbled(t *testing.T) {
	for _, f := range []func(*testing.T){
		TestReliableLossyLinkDeliversExactlyOnceInOrder,
		TestReliablePauseRewindResumeRedelivers,
		TestReliableTruncateDeliveredBoundsRewind,
		TestReliableKeepsFramesOnlyFromTheFloor,
		TestReliableDeliveryLogReusesItsArray,
		TestReliableRewindGuards,
		TestReliableCloseWhilePausedAndBlocked,
		TestReliableOfferSurvivesPumpEvents,
		TestReliablePauseWithdrawsTheOffer,
		TestReliablePassThroughLocalAndUnsequenced,
		TestReliableConcurrentSenders,
		TestReliableStatsString,
		TestReliablePacesToGatedAcks,
		TestReliableRepairsSeededDrops,
		TestReliableResendsReportedGap,
		TestReliableCoalescesAcksPerDrain,
		TestReliableAckGateWithholdsCoalescedAcks,
		TestReliableDrainBound,
		TestReliableAckingAPrefixDoesNotAllocate,
		TestReliableFloorsOnlyForJournaledDestinations,
		TestReliablePiggybacksOwedAck,
		TestReliablePiggybackedAckIsApplied,
		TestReliableParkedAckLeavesAfterAckDelay,
		TestReliableGapReportIsNeverParked,
		TestReliableGatedAckNeitherRidesNorLeavesEarly,
		TestReliablePiggybackedAckWidens,
		TestChanTransportDelivery,
		TestChanTransportFIFOPerLink,
		TestChanTransportLatencyGate,
		TestChanTransportLocalBypass,
		TestChanTransportStats,
		TestChanTransportUnknownNode,
		TestChanTransportSendAfterClose,
		TestChanTransportConcurrentSendClose,
	} {
		name := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
		synctest.Run(func() { t.Run(name[strings.LastIndex(name, ".")+1:], f) })
	}
}
