package chaos

import (
	"testing"

	"hermes/internal/codec"
	"hermes/internal/tx"
)

// wireRoundTrip replaces every procedure of a trace with what a remote
// node would decode from its wire form: tx.AppendRequest → tx.ReadRequest.
func wireRoundTrip(t *testing.T) func([]tx.Procedure) []tx.Procedure {
	return func(procs []tx.Procedure) []tx.Procedure {
		out := make([]tx.Procedure, len(procs))
		for i, p := range procs {
			b, err := tx.AppendRequest(nil, tx.NewRequest(tx.TxnID(i+1), p))
			if err != nil {
				t.Errorf("txn %d (%T): %v", i, p, err)
				return procs
			}
			r := codec.NewReader(b)
			req := tx.ReadRequest(r)
			if err := r.Finish(); err != nil {
				t.Errorf("txn %d (%T): decode: %v", i, p, err)
				return procs
			}
			out[i] = req.Proc
		}
		return out
	}
}

// TestCodecInTheLoopEquivalence: every generated procedure is plain data,
// so a trace whose procedures went through the request codec must quiesce
// to exactly the state of the trace as generated — for every workload
// family and every policy. A procedure with no wire form, or a field the
// codec drops, fails here.
func TestCodecInTheLoopEquivalence(t *testing.T) {
	for _, wl := range []Workload{WorkloadYCSB, WorkloadTPCC, WorkloadMultiTenant} {
		for _, pol := range Policies() {
			t.Run(string(wl)+"/"+pol, func(t *testing.T) {
				t.Parallel()
				spec := Spec{Policy: pol, Workload: wl, Nodes: 3, Txns: 64, Batch: 8, Seed: 17}
				sched := Schedule{Name: "baseline", Seed: 1}
				base, err := Run(spec, sched)
				if err != nil {
					t.Fatal(err)
				}
				spec.MutateProcs = wireRoundTrip(t)
				decoded, err := Run(spec, sched)
				if err != nil {
					t.Fatal(err)
				}
				if t.Failed() {
					return
				}
				if err := equivalent(base, decoded); err != nil {
					t.Fatalf("decoded trace: %v", err)
				}
				if base.Committed == 0 {
					t.Fatal("baseline committed nothing")
				}
			})
		}
	}
}
