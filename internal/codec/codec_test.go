package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU64(b, math.MaxUint64)
	b = AppendI64(b, -64)
	b = AppendBytes(b, []byte("value"))
	b = AppendBytes(b, nil)
	b = AppendCount(b, 300)
	b = append(b, make([]byte, 300)...)

	r := NewReader(b)
	if v := r.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.I64(); v != -64 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.Bytes(); string(v) != "value" {
		t.Errorf("Bytes = %q", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("empty Bytes = %#v, want nil", v)
	}
	if n := r.Count(1); n != 300 {
		t.Errorf("Count = %d, want 300", n)
	}
	for i := 0; i < 300; i++ {
		r.U8()
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderNeverOverreads cuts a valid encoding at every length: every
// prefix must fail with ErrTruncated, return zero values, and never panic.
func TestReaderNeverOverreads(t *testing.T) {
	full := AppendBytes(AppendU64([]byte{9}, 42), []byte("abcdef"))
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U8()
		r.U64()
		r.Bytes()
		if !errors.Is(r.Finish(), ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, r.err)
		}
		if r.U64() != 0 || r.Bytes() != nil {
			t.Fatalf("cut %d: reads after a failure returned data", cut)
		}
	}
}

func TestReaderCountIsBoundedByInput(t *testing.T) {
	// A count of 2^40 eight-byte elements in a 20-byte input.
	hostile := append(AppendCount(nil, 1<<40), make([]byte, 14)...)
	r := NewReader(hostile)
	if n := r.Count(8); n != 0 || r.err == nil {
		t.Fatalf("Count = %d, err = %v; want rejection", n, r.err)
	}
	// An overlong varint (more than 64 bits) is rejected, not wrapped.
	r = NewReader(bytes.Repeat([]byte{0xff}, 11))
	if n := r.Count(1); n != 0 || r.err == nil {
		t.Fatalf("overlong varint: Count = %d, err = %v", n, r.err)
	}
}

func TestReaderBytesDoNotAliasInput(t *testing.T) {
	in := AppendBytes(nil, []byte("first"))
	got := NewReader(in).Bytes()
	copy(in[1:], "XXXXX")
	if string(got) != "first" {
		t.Fatalf("decoded bytes changed with the input buffer: %q", got)
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Finish(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestFrameRoundTripAndDamage(t *testing.T) {
	prefix := []byte("already in the buffer")
	b := append(BeginFrame(append([]byte(nil), prefix...)), "payload"...)
	if err := EndFrame(b, len(prefix)); err != nil {
		t.Fatal(err)
	}
	frame := b[len(prefix):]
	hdr, payload := frame[:FrameHeaderLen], frame[FrameHeaderLen:]
	n, err := PayloadLen(hdr)
	if err != nil || n != len("payload") {
		t.Fatalf("PayloadLen = %d, %v", n, err)
	}
	if err := CheckPayload(hdr, payload); err != nil {
		t.Fatal(err)
	}
	payload[3] ^= 0x40
	if err := CheckPayload(hdr, payload); !errors.Is(err, ErrFrameCRC) {
		t.Fatalf("flipped bit: err = %v, want ErrFrameCRC", err)
	}

	for _, claimed := range [][]byte{{0, 0, 0, 0}, {0x04, 0, 0, 1}, {0xff, 0xff, 0xff, 0xff}} {
		if _, err := PayloadLen(append(claimed, 0, 0, 0, 0)); !errors.Is(err, ErrFrameLen) {
			t.Errorf("length %x: err = %v, want ErrFrameLen", claimed, err)
		}
	}
	if err := EndFrame(BeginFrame(nil), 0); !errors.Is(err, ErrFrameLen) {
		t.Errorf("empty payload sealed: %v", err)
	}
}
