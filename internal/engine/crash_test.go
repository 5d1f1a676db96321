package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/leaktest"
	"hermes/internal/network"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

// newReliableCluster builds a cluster with the reliable delivery layer and
// size-only batch sealing (Interval is effectively infinite), so the batch
// boundaries — and therefore routing — depend only on the submission
// order, not on timing. That is what makes a crashed run comparable
// byte-for-byte with an uninterrupted one.
func newReliableCluster(t *testing.T, nodes int, pf PolicyFactory) *Cluster {
	t.Helper()
	ids := make([]tx.NodeID, nodes)
	for i := range ids {
		ids[i] = tx.NodeID(i)
	}
	c, err := New(Config{
		Nodes:    ids,
		Policy:   pf,
		Seq:      sequencer.Config{BatchSize: 4},
		Reliable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// crashWorkload drives the deterministic post-checkpoint workload: txns
// transactions submitted asynchronously through node 0's front-end (single
// front-end keeps the total order identical across runs). If crash is
// true, node 1 is killed once its scheduler passes the trigger batch and
// restarted after a short outage, while traffic keeps flowing.
func crashWorkload(t *testing.T, c *Cluster, txns int, crash bool) {
	t.Helper()
	cp, err := c.Checkpoint(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dones := make([]<-chan struct{}, 0, txns)
	for i := 0; i < txns; i++ {
		k1 := tx.MakeKey(0, uint64(i*3%testRows))
		k2 := tx.MakeKey(0, uint64(i*7%testRows))
		done, err := c.Submit(0, incProc(k1, k2))
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
		if crash && i == txns/2 {
			trigger := cp.Seq + 3
			deadline := time.Now().Add(30 * time.Second)
			for c.Node(1).Scheduled() < trigger {
				if time.Now().After(deadline) {
					t.Fatal("node 1 never reached the crash trigger")
				}
				time.Sleep(200 * time.Microsecond)
			}
			if err := c.CrashNode(1); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			if err := c.RestartNode(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, done := range dones {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("transaction %d never completed", i)
		}
	}
	mustDrain(t, c, 30*time.Second)
}

// TestCrashRestartMatchesUninterrupted is the live §4.3 claim: killing a
// node mid-run and replaying it from the last checkpoint leaves the
// cluster byte-identical to a run that never crashed.
func TestCrashRestartMatchesUninterrupted(t *testing.T) {
	const txns = 40
	for _, name := range []string{"hermes", "calvin", "tpart"} {
		t.Run(name, func(t *testing.T) {
			pf := policies(3)[name]

			ref := newReliableCluster(t, 3, pf)
			loadCounters(ref, testRows)
			crashWorkload(t, ref, txns, false)
			want := ref.NodeDigests()
			wantCommitted := ref.Collector().Committed()

			c := newReliableCluster(t, 3, pf)
			loadCounters(c, testRows)
			crashWorkload(t, c, txns, true)
			got := c.NodeDigests()
			if len(got) != len(want) {
				t.Fatalf("digest count %d != %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("node %d diverged after crash-recovery:\n got %+v\nwant %+v",
						want[i].Node, got[i], want[i])
				}
			}
			// Replay must not double-count client-visible metrics.
			if gotCommitted := c.Collector().Committed(); gotCommitted != wantCommitted {
				t.Errorf("committed %d != uninterrupted %d", gotCommitted, wantCommitted)
			}
			if c.Collector().Crashes() != 1 || c.Collector().Recoveries() != 1 {
				t.Errorf("crash/recovery counters = %d/%d, want 1/1",
					c.Collector().Crashes(), c.Collector().Recoveries())
			}
			if c.Collector().Downtime() <= 0 {
				t.Error("downtime not accrued")
			}
		})
	}
}

// holdPushes drops every record push while held is set; the reliable
// layer above retransmits them once it is cleared.
type holdPushes struct {
	network.Transport
	held *atomic.Bool
}

func (h holdPushes) Send(m network.Message) error {
	if m.Type == network.MsgRecordPush && h.held.Load() {
		return nil
	}
	return h.Transport.Send(m)
}

// TestCrashReturnsMigrationGauge: a committing role that carries
// migrations and waits for a record when its node crashes never reaches
// finish. The crash must hand back its share of the in-flight migration
// gauge, or the gauge reads one too high for good once the replay has
// finished the transaction.
func TestCrashReturnsMigrationGauge(t *testing.T) {
	var held atomic.Bool
	ids := []tx.NodeID{0, 1, 2}
	c, err := New(Config{
		Nodes:    ids,
		Policy:   policies(3)["hermes"],
		Seq:      sequencer.Config{BatchSize: 1},
		Reliable: true,
		WrapTransport: func(inner network.Transport) network.Transport {
			return holdPushes{Transport: inner, held: &held}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	loadCounters(c, testRows)
	if _, err := c.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Keys homed on nodes 0 and 2: Hermes fuses them at one master, whose
	// role waits for the other's record push — which is held.
	held.Store(true)
	done, err := c.Submit(0, incProc(tx.MakeKey(0, 1), tx.MakeKey(0, testRows-1)))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Collector().MigrationsInFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("migrating role never started: gauge = %d", c.Collector().MigrationsInFlight())
		}
		time.Sleep(time.Millisecond)
	}
	// Every node crashes once, so whichever one commits is killed mid-wait.
	for _, id := range ids {
		if err := c.CrashNode(id); err != nil {
			t.Fatal(err)
		}
		if err := c.RestartNode(id); err != nil {
			t.Fatal(err)
		}
	}
	held.Store(false)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("transaction never completed after the pushes were released")
	}
	mustDrain(t, c, 10*time.Second)
	if g := c.Collector().MigrationsInFlight(); g != 0 {
		t.Fatalf("migrations in flight after drain = %d, want 0", g)
	}
}

func TestCrashNodeValidation(t *testing.T) {
	// Without the reliable layer there is no delivery log to replay.
	plain := newTestCluster(t, 2, policies(2)["hermes"])
	if err := plain.CrashNode(0); err == nil {
		t.Fatal("crash without Reliable accepted")
	}

	c := newReliableCluster(t, 2, policies(2)["hermes"])
	loadCounters(c, testRows)
	if err := c.CrashNode(0); err == nil {
		t.Fatal("crash without a prior checkpoint accepted")
	}
	if _, err := c.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode(7); err == nil {
		t.Fatal("crash of unknown node accepted")
	}
	if err := c.RestartNode(1); err == nil {
		t.Fatal("restart of a running node accepted")
	}
	if err := c.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode(1); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCloseLeaksNothing covers the cluster Close path — including
// the reliable layer's pump/feed/retransmit goroutines and a node that was
// crashed and restarted mid-run — with the goroutine-leak check.
func TestClusterCloseLeaksNothing(t *testing.T) {
	defer leaktest.Check(t)()
	ids := []tx.NodeID{0, 1}
	c, err := New(Config{
		Nodes:    ids,
		Policy:   policies(2)["hermes"],
		Seq:      sequencer.Config{BatchSize: 4, Interval: 2 * time.Millisecond},
		Reliable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	loadCounters(c, testRows)
	for i := 0; i < 8; i++ {
		if err := c.SubmitAndWait(0, incProc(tx.MakeKey(0, uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitAndWait(0, incProc(tx.MakeKey(0, 3), tx.MakeKey(0, 150))); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10*time.Second)
	c.Stop()
	// The leader's flush timer may outlive Stop by one Interval (2ms);
	// leaktest's drain loop absorbs that.
}
