package hermes

import (
	"testing"
	"time"
)

func TestPublicCheckpointRecover(t *testing.T) {
	opts := Options{Nodes: 2, Rows: 100, Policy: PolicyHermes, BatchSize: 8, BatchInterval: 2 * time.Millisecond}
	db := openTest(t, opts)
	db.LoadUniform(16)
	for i := 0; i < 20; i++ {
		if err := db.ExecWait(NodeID(i%2), setProc(
			[]Key{MakeKey(0, uint64(i*3%100)), MakeKey(0, uint64(i*11%100))}, []byte{byte(i)},
		)); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, db, 5*time.Second)
	}
	cp, err := db.Checkpoint(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Fingerprint()

	db2, err := Recover(opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %x != original %x", got, want)
	}
	// Recovered instance keeps serving transactions.
	if err := db2.ExecWait(0, setProc([]Key{MakeKey(0, 1)}, []byte("post"))); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, db2, 5*time.Second)
	if v, _ := db2.Read(MakeKey(0, 1)); string(v) != "post" {
		t.Fatalf("post-recovery write = %q", v)
	}
}
