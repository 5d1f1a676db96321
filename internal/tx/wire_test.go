package tx

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hermes/internal/codec"
)

func roundTrip(t *testing.T, in *Request) *Request {
	t.Helper()
	wire, err := in.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := out.GobDecode(wire); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestDecodedRequestRoutesLikeTheOriginal pins what routing determinism
// rests on: a request decoded on a remote node exposes exactly the
// normalized read- and write-sets NewRequest cached on the sender, even for
// unsorted, duplicated declared keys — and the procedure keeps its declared
// order, which Execute follows.
func TestDecodedRequestRoutesLikeTheOriginal(t *testing.T) {
	reads := []Key{MakeKey(2, 9), MakeKey(0, 5), MakeKey(2, 9), MakeKey(0, 1), MakeKey(0, 5)}
	writes := []Key{MakeKey(1, 7), MakeKey(0, 5), MakeKey(1, 7)}
	in := NewRequest(42, &CounterProc{Reads: reads, Writes: writes, Payload: 64})
	in.Client, in.ClientSeq = 3, 99
	in.SubmitTime = time.Unix(1_700_000_000, 123)

	out := roundTrip(t, in)
	if !reflect.DeepEqual(out.ReadSet(), in.ReadSet()) || !reflect.DeepEqual(out.WriteSet(), in.WriteSet()) {
		t.Fatalf("decoded sets %v / %v, want %v / %v", out.ReadSet(), out.WriteSet(), in.ReadSet(), in.WriteSet())
	}
	if want := []Key{MakeKey(0, 1), MakeKey(0, 5), MakeKey(2, 9)}; !reflect.DeepEqual(out.ReadSet(), want) {
		t.Fatalf("read-set %v is not sorted and deduplicated (%v)", out.ReadSet(), want)
	}
	if !reflect.DeepEqual(out.Proc, in.Proc) {
		t.Fatalf("procedure %+v, want %+v", out.Proc, in.Proc)
	}
	if out.ID != 42 || out.Client != 3 || out.ClientSeq != 99 || !out.SubmitTime.Equal(in.SubmitTime) {
		t.Fatalf("header fields changed: %+v", out)
	}
}

func TestEveryTaggedProcedureRoundTrips(t *testing.T) {
	procs := []Procedure{
		&CounterProc{Reads: []Key{1, 2}, Writes: []Key{2}, Payload: codec.MaxFrameLen},
		&CounterProc{},
		&CounterProc{Reads: []Key{7}, Writes: []Key{7, 8}, Payload: 64, Abort: true},
		&MigrationProc{Keys: []Key{math.MaxUint64, 0}, To: NoNode},
		&ProvisionProc{Add: []NodeID{4, 5}, Remove: []NodeID{-64}},
		&ProvisionProc{},
	}
	seen := map[uint8]bool{}
	for _, p := range procs {
		tag, err := WireTag(p)
		if err != nil {
			t.Fatal(err)
		}
		seen[tag] = true
		in := NewRequest(math.MaxUint64, p)
		in.Client, in.ClientSeq = NoNode, math.MaxUint64
		out := roundTrip(t, in)
		if !reflect.DeepEqual(out.Proc, p) {
			t.Errorf("%T: decoded %+v, want %+v", p, out.Proc, p)
		}
		if out.ID != in.ID || out.Client != NoNode || out.ClientSeq != math.MaxUint64 {
			t.Errorf("%T: header fields changed: %+v", p, out)
		}
		if !out.SubmitTime.IsZero() {
			t.Errorf("%T: zero SubmitTime decoded as %v", p, out.SubmitTime)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("covered tags %v, want all four", seen)
	}
}

// TestClosureProceduresHaveNoWireForm: a procedure whose behaviour lives in
// a func field must be refused by name, never encoded as something else.
func TestClosureProceduresHaveNoWireForm(t *testing.T) {
	for _, p := range []Procedure{
		&FuncProc{Fn: func(ExecCtx) {}},
	} {
		name := reflect.TypeOf(p).String()
		if _, err := WireTag(p); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("WireTag(%s) = %v, want an error naming the type", name, err)
		}
		if _, err := NewRequest(1, p).GobEncode(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("encoding %s: err = %v, want an error naming the type", name, err)
		}
		if _, err := AppendBatch(nil, &Batch{Txns: []*Request{NewRequest(1, p)}}); err == nil {
			t.Errorf("a batch holding %s encoded", name)
		}
	}
	if _, err := AppendRequest(nil, &Request{}); err == nil {
		t.Error("a request without a procedure encoded")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	wire, err := NewRequest(7, &CounterProc{Reads: []Key{1, 2, 3}, Writes: []Key{3}, Payload: 8}).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var r Request
	for cut := 0; cut < len(wire); cut++ {
		if err := r.GobDecode(wire[:cut]); err == nil {
			t.Fatalf("request cut to %d of %d bytes decoded", cut, len(wire))
		}
	}
	if err := r.GobDecode(append(append([]byte(nil), wire...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), wire...)
	bad[minRequestLen-1] = 9
	if err := r.GobDecode(bad); err == nil || !strings.Contains(err.Error(), "unknown procedure tag 9") {
		t.Fatalf("unknown tag: err = %v", err)
	}
	// A key count far beyond the input must fail before anything is sized
	// by it.
	hostile := append(append([]byte(nil), wire[:minRequestLen]...), 0xff, 0xff, 0xff, 0xff, 0x0f)
	if err := r.GobDecode(hostile); err == nil {
		t.Fatal("hostile key count accepted")
	}
	// Every replica allocates the payload size per written key: a size no
	// frame could carry must be refused, not handed to Execute.
	for _, size := range []int64{-1, math.MinInt64, codec.MaxFrameLen + 1, math.MaxInt64} {
		bad := codec.AppendI64(append([]byte(nil), wire[:len(wire)-8]...), size)
		if err := r.GobDecode(bad); err == nil || !strings.Contains(err.Error(), "counter payload") {
			t.Fatalf("payload %d: err = %v", size, err)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := &Batch{Seq: 9}
	for i := 1; i <= 3; i++ {
		req := NewRequest(TxnID(i), &CounterProc{Reads: []Key{Key(i)}, Writes: []Key{Key(i)}, Payload: 64})
		req.SubmitTime = time.Unix(0, int64(i))
		in.Txns = append(in.Txns, req)
	}
	wire, err := AppendBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	rd := codec.NewReader(wire)
	out := ReadBatch(rd)
	if err := rd.Finish(); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 9 || len(out.Txns) != 3 {
		t.Fatalf("decoded batch %+v", out)
	}
	for i, req := range out.Txns {
		if req.ID != in.Txns[i].ID || !reflect.DeepEqual(req.Proc, in.Txns[i].Proc) ||
			!req.SubmitTime.Equal(in.Txns[i].SubmitTime) {
			t.Errorf("txn %d: decoded %+v, want %+v", i, req, in.Txns[i])
		}
	}

	empty, err := AppendBatch(nil, &Batch{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	rd = codec.NewReader(empty)
	if out := ReadBatch(rd); rd.Finish() != nil || out.Seq != 1 || out.Txns != nil {
		t.Fatalf("empty batch decoded as %+v (%v)", out, rd.Finish())
	}
}
