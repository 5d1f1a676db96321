package hermes

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// TestOLLPSecondaryIndexLookup models the canonical OLLP case: record A
// holds a pointer (an index entry) to the record that must be updated.
// The access set depends on A's value, so reconnaissance reads A first.
func TestOLLPSecondaryIndexLookup(t *testing.T) {
	db := openTest(t, Options{Nodes: 2, Rows: 100, Policy: PolicyHermes})
	db.LoadUniform(16)
	idx := MakeKey(0, 1)
	target := MakeKey(0, 77)
	// Index entry: points at row 77.
	ptr := make([]byte, 16)
	binary.LittleEndian.PutUint64(ptr, 77)
	if err := db.ExecWait(0, setProc([]Key{idx}, ptr)); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, db, 5*time.Second)

	planner := func(read func(Key) []byte) (Procedure, func(ctx ExecCtx) bool, error) {
		row := binary.LittleEndian.Uint64(read(idx))
		tgt := MakeKey(0, row)
		proc := setProc([]Key{tgt, idx}, []byte("indexed-update"))
		validate := func(ctx ExecCtx) bool {
			return binary.LittleEndian.Uint64(ctx.Read(idx)) == row
		}
		return proc, validate, nil
	}
	if err := db.ExecOLLP(0, planner, 3); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, db, 5*time.Second)
	v, ok := db.Read(target)
	if !ok || string(v) != "indexed-update" {
		t.Fatalf("target = %q,%v", v, ok)
	}
}

// TestOLLPRetriesOnStaleIndex forces the prediction stale once: the first
// planned transaction validates against a moved index entry, aborts
// deterministically, and the retry succeeds against the new target.
func TestOLLPRetriesOnStaleIndex(t *testing.T) {
	db := openTest(t, Options{Nodes: 2, Rows: 100, Policy: PolicyHermes})
	db.LoadUniform(16)
	idx := MakeKey(0, 1)
	writePtr := func(row uint64) {
		ptr := make([]byte, 16)
		binary.LittleEndian.PutUint64(ptr, row)
		if err := db.ExecWait(0, setProc([]Key{idx}, ptr)); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, db, 5*time.Second)
	}
	writePtr(50)

	attempts := 0
	planner := func(read func(Key) []byte) (Procedure, func(ctx ExecCtx) bool, error) {
		attempts++
		row := binary.LittleEndian.Uint64(read(idx))
		if attempts == 1 {
			// Sabotage: move the index between reconnaissance and submit.
			writePtr(60)
		}
		tgt := MakeKey(0, row)
		proc := setProc([]Key{tgt, idx}, []byte("v2"))
		validate := func(ctx ExecCtx) bool {
			return binary.LittleEndian.Uint64(ctx.Read(idx)) == row
		}
		return proc, validate, nil
	}
	if err := db.ExecOLLP(0, planner, 5); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, db, 5*time.Second)
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one stale, one success)", attempts)
	}
	// The stale attempt must not have written row 50.
	if v, _ := db.Read(MakeKey(0, 50)); string(v) == "v2" {
		t.Fatal("stale transaction's write leaked")
	}
	if v, _ := db.Read(MakeKey(0, 60)); string(v) != "v2" {
		t.Fatalf("retried transaction's write missing: %q", v)
	}
}

func TestOLLPExhaustsRetries(t *testing.T) {
	db := openTest(t, Options{Nodes: 2, Rows: 100, Policy: PolicyHermes})
	db.LoadUniform(16)
	planner := func(read func(Key) []byte) (Procedure, func(ctx ExecCtx) bool, error) {
		proc := setProc([]Key{MakeKey(0, 2)}, []byte("x"))
		return proc, func(ExecCtx) bool { return false }, nil // always stale
	}
	err := db.ExecOLLP(0, planner, 2)
	if !errors.Is(err, ErrOLLPRetriesExhausted) {
		t.Fatalf("err = %v, want retries exhausted", err)
	}
}

func TestOLLPPlannerError(t *testing.T) {
	db := openTest(t, Options{Nodes: 2, Rows: 100, Policy: PolicyHermes})
	wantErr := errors.New("no such index")
	planner := func(read func(Key) []byte) (Procedure, func(ctx ExecCtx) bool, error) {
		return nil, nil, wantErr
	}
	if err := db.ExecOLLP(0, planner, 3); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want planner error", err)
	}
}
