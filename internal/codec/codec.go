// Package codec holds the byte-level primitives of the data-plane format:
// appenders that write into a caller-owned buffer, a bounds-checked Reader
// that never trusts a count it has not compared with the bytes that remain,
// and the one frame routine — [4B length][4B CRC32C(payload)][payload] —
// that both the TCP link and the delivery journal write and verify.
//
// All integers are big-endian, like the transport handshake and the journal
// file header. Fixed-width fields carry identifiers; counts and byte lengths
// are uvarints. There is no reflection, no per-stream state and no schema
// negotiation: what a value looks like on the wire is decided by the
// package that owns the type (tx for requests, network for messages), and
// incompatible builds are turned away by version checks before the first
// frame (docs/CLUSTER.md, "Wire and journal format").
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// AppendU64 appends v as 8 big-endian bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendI64 appends v as 8 big-endian two's-complement bytes.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendCount appends a count or byte length as a uvarint.
func AppendCount(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// AppendBytes appends p behind its length.
func AppendBytes(b, p []byte) []byte { return append(AppendCount(b, len(p)), p...) }

// ErrTruncated is the Reader's error for input that ends before the value
// being read does, or is too short for a count it claims.
var ErrTruncated = errors.New("codec: input truncated")

// Reader consumes an encoded payload front to back. The first failure
// sticks: every later read returns a zero value, so a decoder reads a whole
// structure and checks Finish once at the end.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads from p. Nothing a Reader returns aliases p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Fail records err (if it is the first) and poisons later reads; decoders
// use it for semantic errors such as an unknown tag.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Finish returns the first error, or an error if input is left over: a
// frame holds exactly one value.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) > 0 {
		return fmt.Errorf("codec: %d trailing bytes", len(r.buf))
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if len(r.buf) < n {
		r.Fail(ErrTruncated)
		return nil
	}
	p := r.buf[:n]
	r.buf = r.buf[n:]
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// U64 reads 8 big-endian bytes.
func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// I64 reads 8 big-endian two's-complement bytes.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Count reads the element count of a sequence whose elements occupy at
// least elemMin (≥ 1) bytes each, and fails unless that many elements can
// still be present — so the caller may allocate for the returned count.
func (r *Reader) Count(elemMin int) int {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		// n == 0: the buffer ended inside the varint; n < 0: it ran past 64
		// bits, which no count this package wrote does.
		r.Fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	if v > uint64(len(r.buf)/elemMin) {
		r.Fail(fmt.Errorf("%w: count %d needs more than the %d bytes that remain", ErrTruncated, v, len(r.buf)))
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string into fresh memory. A zero
// length reads as nil.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), r.take(n)...)
}

// Frame layout.
const (
	// FrameHeaderLen is the 4-byte payload length plus the 4-byte CRC32C.
	FrameHeaderLen = 8
	// MaxFrameLen bounds a plausible payload. A longer claimed length is
	// damage — there is no resynchronizing past a bad length — and a longer
	// encoded message is refused at the sender.
	MaxFrameLen = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors of the frame check. A stream or file that merely ends inside a
// frame is not among them: only the caller knows whether that is a torn
// tail or a dropped connection.
var (
	ErrFrameLen = errors.New("codec: implausible frame length")
	ErrFrameCRC = errors.New("codec: frame CRC mismatch")
)

// BeginFrame appends a placeholder frame header to b; the caller appends
// the payload behind it and seals both with EndFrame.
func BeginFrame(b []byte) []byte {
	return append(b, make([]byte, FrameHeaderLen)...)
}

// EndFrame fills in the header BeginFrame reserved at b[start:] for the
// payload that now follows it.
func EndFrame(b []byte, start int) error {
	payload := b[start+FrameHeaderLen:]
	if len(payload) == 0 || len(payload) > MaxFrameLen {
		return fmt.Errorf("%w: %d-byte payload", ErrFrameLen, len(payload))
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return nil
}

// PayloadLen returns the payload length a frame header claims, or
// ErrFrameLen if no frame this package wrote could carry it.
func PayloadLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxFrameLen {
		return 0, fmt.Errorf("%w %d", ErrFrameLen, n)
	}
	return int(n), nil
}

// CheckPayload verifies a complete payload against its frame header.
func CheckPayload(hdr, payload []byte) error {
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[4:]) {
		return ErrFrameCRC
	}
	return nil
}
