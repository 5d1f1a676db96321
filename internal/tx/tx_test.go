package tx

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMakeKeyRoundTrip(t *testing.T) {
	cases := []struct {
		table uint8
		row   uint64
	}{
		{0, 0},
		{1, 1},
		{9, 123456789},
		{255, 1<<56 - 1},
	}
	for _, c := range cases {
		k := MakeKey(c.table, c.row)
		if k.Table() != c.table || k.Row() != c.row {
			t.Errorf("MakeKey(%d,%d) round-trip = (%d,%d)", c.table, c.row, k.Table(), k.Row())
		}
	}
}

func TestMakeKeyRoundTripProperty(t *testing.T) {
	f := func(table uint8, row uint64) bool {
		row &= 1<<56 - 1
		k := MakeKey(table, row)
		return k.Table() == table && k.Row() == row
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderingPreservesRowOrderWithinTable(t *testing.T) {
	f := func(table uint8, a, b uint64) bool {
		a &= 1<<56 - 1
		b &= 1<<56 - 1
		if a == b {
			return MakeKey(table, a) == MakeKey(table, b)
		}
		return (a < b) == (MakeKey(table, a) < MakeKey(table, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeKeys(t *testing.T) {
	tests := []struct {
		name string
		in   []Key
		want []Key
	}{
		{"empty", nil, nil},
		{"single", []Key{5}, []Key{5}},
		{"sorted", []Key{1, 2, 3}, []Key{1, 2, 3}},
		{"reverse", []Key{3, 2, 1}, []Key{1, 2, 3}},
		{"dups", []Key{2, 1, 2, 1, 2}, []Key{1, 2}},
		{"all same", []Key{7, 7, 7}, []Key{7}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := NormalizeKeys(append([]Key(nil), tc.in...))
			if len(got) != len(tc.want) {
				t.Fatalf("NormalizeKeys(%v) = %v, want %v", tc.in, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("NormalizeKeys(%v) = %v, want %v", tc.in, got, tc.want)
				}
			}
		})
	}
}

func TestNormalizeKeysProperty(t *testing.T) {
	f := func(in []uint64) bool {
		ks := make([]Key, len(in))
		for i, v := range in {
			ks[i] = Key(v % 100) // force duplicates
		}
		out := NormalizeKeys(ks)
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i] == out[i-1] {
				return false
			}
		}
		// Every input key must be present.
		for _, v := range in {
			if !ContainsKey(out, Key(v%100)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainsKey(t *testing.T) {
	keys := []Key{1, 3, 5, 9}
	for _, k := range keys {
		if !ContainsKey(keys, k) {
			t.Errorf("ContainsKey(%v, %d) = false", keys, k)
		}
	}
	for _, k := range []Key{0, 2, 4, 10} {
		if ContainsKey(keys, k) {
			t.Errorf("ContainsKey(%v, %d) = true", keys, k)
		}
	}
}

func TestRequestNormalizesSets(t *testing.T) {
	p := &CounterProc{Reads: []Key{3, 1, 3}, Writes: []Key{2, 2}}
	r := NewRequest(7, p)
	if got := r.ReadSet(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("ReadSet = %v, want [1 3]", got)
	}
	if got := r.WriteSet(); len(got) != 1 || got[0] != 2 {
		t.Errorf("WriteSet = %v, want [2]", got)
	}
	if got := r.AccessSet(); len(got) != 3 {
		t.Errorf("AccessSet = %v, want [1 2 3]", got)
	}
}

type fakeCtx struct {
	vals    map[Key][]byte
	writes  map[Key][]byte
	aborted string
}

func newFakeCtx(vals map[Key][]byte) *fakeCtx {
	return &fakeCtx{vals: vals, writes: map[Key][]byte{}}
}

func (c *fakeCtx) Read(k Key) []byte     { return c.vals[k] }
func (c *fakeCtx) Write(k Key, v []byte) { c.writes[k] = v }
func (c *fakeCtx) Abort(reason string)   { c.aborted = reason }
func (c *fakeCtx) Aborted() bool         { return c.aborted != "" }

func TestCounterProcReadModifyWrite(t *testing.T) {
	ctx := newFakeCtx(map[Key][]byte{1: CounterValue(16, 10), 2: CounterValue(16, 20)})
	p := &CounterProc{Reads: []Key{1, 2}, Writes: []Key{2, 3}, Payload: 16}
	p.Execute(ctx)
	if got := ctx.writes[2]; len(got) != 16 || Counter(got) != 21 {
		t.Errorf("write to key 2 = %x, want counter 21 in 16 bytes", got)
	}
	if got := ctx.writes[3]; Counter(got) != 1 {
		t.Errorf("write to absent key 3 = %x, want counter 1", got)
	}
	if _, ok := ctx.writes[1]; ok || ctx.Aborted() {
		t.Errorf("read-only key written or unexpected abort: %v", ctx.writes)
	}
}

func TestCounterProcOneKeyListForBothSets(t *testing.T) {
	ctx := newFakeCtx(map[Key][]byte{1: CounterValue(8, 10), 2: CounterValue(8, 20)})
	keys := []Key{2, 1, 3, 2}
	p := &CounterProc{Reads: keys, Writes: keys, Payload: 8}
	p.Execute(ctx)
	for k, want := range map[Key]uint64{1: 11, 2: 21, 3: 1} {
		if got := Counter(ctx.writes[k]); got != want {
			t.Errorf("write to key %d = counter %d, want %d", k, got, want)
		}
	}
}

func TestCounterProcAbortSkipsWrites(t *testing.T) {
	ctx := newFakeCtx(map[Key][]byte{1: CounterValue(8, 0)})
	p := &CounterProc{Reads: []Key{1}, Writes: []Key{1}, Abort: true}
	p.Execute(ctx)
	if !ctx.Aborted() {
		t.Fatal("expected abort")
	}
	if len(ctx.writes) != 0 {
		t.Errorf("writes after abort = %v, want none", ctx.writes)
	}
}

func TestValueCounterRoundTrip(t *testing.T) {
	v := CounterValue(64, 42)
	if len(v) != 64 || Counter(v) != 42 {
		t.Fatalf("CounterValue/Counter round trip failed: len=%d counter=%d", len(v), Counter(v))
	}
	if Counter(nil) != 0 {
		t.Fatal("Counter(nil) != 0")
	}
	if len(CounterValue(2, 1)) != 8 {
		t.Fatal("undersized payload not widened to hold counter")
	}
}

func TestFuncProc(t *testing.T) {
	ran := false
	p := &FuncProc{
		Reads:  []Key{1},
		Writes: []Key{2},
		Fn:     func(ctx ExecCtx) { ran = true; ctx.Write(2, ctx.Read(1)) },
	}
	ctx := newFakeCtx(map[Key][]byte{1: []byte("x")})
	p.Execute(ctx)
	if !ran || string(ctx.writes[2]) != "x" {
		t.Errorf("FuncProc did not run as expected: ran=%v writes=%v", ran, ctx.writes)
	}
}

func BenchmarkNormalizeKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]Key, 20)
	for i := range base {
		base[i] = Key(rng.Uint64() % 1000)
	}
	buf := make([]Key, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		NormalizeKeys(buf)
	}
}
