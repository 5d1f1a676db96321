package hermes

import (
	"testing"
	"time"
)

// TestLeaderFailoverPublicAPI drives the fault-tolerant sequencing story
// end to end through the public surface: open with sequencer standbys,
// checkpoint, kill the total-order leader mid-traffic, keep executing
// while the standby promotes itself, restart the killed replica, and
// check the stats surface recorded exactly one failover with no lost or
// duplicated transactions.
func TestLeaderFailoverPublicAPI(t *testing.T) {
	const rows = 96
	opts := Options{
		Nodes:         3,
		Rows:          rows,
		BatchSize:     4,
		BatchInterval: 2 * time.Millisecond,
		Reliable:      true,
		SeqStandbys:   2,
	}
	db := openTest(t, opts)
	db.LoadUniform(8)

	inc := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			k := MakeKey(0, uint64(i%rows))
			if err := db.ExecWait(0, &CounterProc{Reads: []Key{k}, Writes: []Key{k}, Payload: 8}); err != nil {
				t.Fatal(err)
			}
		}
	}

	inc(0, 16)
	if _, err := db.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := db.CrashLeader(); err != nil {
		t.Fatal(err)
	}
	// These submissions span the leaderless window: the front-end retries
	// them against the promoted standby.
	inc(16, 32)
	if err := db.RestartLeader(); err != nil {
		t.Fatal(err)
	}
	inc(32, 48)
	mustDrain(t, db, 10*time.Second)

	var sum int
	for i := 0; i < rows; i++ {
		if v, ok := db.Read(MakeKey(0, uint64(i))); ok && len(v) > 0 {
			sum += int(v[0])
		}
	}
	if sum != 48 {
		t.Errorf("increment sum = %d, want 48 (lost or duplicated submissions)", sum)
	}
	st := db.Stats()
	if st.Committed != 48 {
		t.Errorf("committed = %d, want 48", st.Committed)
	}
	if st.SeqFailovers != 1 || st.SeqEpoch != 1 {
		t.Errorf("failovers=%d epoch=%d, want 1/1", st.SeqFailovers, st.SeqEpoch)
	}
	if st.SeqHeartbeatMisses == 0 {
		t.Error("no heartbeat misses recorded across a leader kill")
	}
}
