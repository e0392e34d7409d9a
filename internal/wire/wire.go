// Package wire is the one checked reader for untrusted binary bytes: RA
// messages, SGX quotes, EPID signatures, host evidence, ECall arguments,
// secure-channel frames and the transparency log's persisted formats all
// decode through a Reader.
//
// A Reader compares every length in 64 bits against the bytes left, and
// a length prefix also against an explicit cap, before anything is
// sized or sliced from it. Its error is sticky: the first refusal is
// kept, every later read returns zero values, and Done reports it, so a
// decoder reads all its fields and checks once. The error says only
// what went wrong with the framing — ErrTruncated, ErrOverCap or
// ErrTrailing — and each decoder wraps it in its own package's
// sentinel. Integers are big-endian.
//
// Reads return sub-slices of the input, never copies: a decoder that
// keeps a field beyond the input's lifetime copies it itself.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Refusals. A Reader reports exactly one of these.
var (
	// ErrTruncated: a field, or a length prefix's bytes, runs past the
	// end of the input.
	ErrTruncated = errors.New("wire: truncated")
	// ErrOverCap: a length prefix exceeds its field's cap, or a uvarint
	// overflows 64 bits.
	ErrOverCap = errors.New("wire: length over cap")
	// ErrTrailing: bytes remain after the last field.
	ErrTrailing = errors.New("wire: trailing bytes")
)

// Unbounded is the Bytes32 cap of a field that only the bytes left
// bound.
const Unbounded = math.MaxUint32

// Reader is a cursor over one encoding. The zero value reads nothing;
// use NewReader. A Reader is a value meant to live on its decoder's
// stack: reading allocates nothing.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// fail records the first refusal and empties the cursor, so every later
// read fails too.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Fixed reads the next n bytes.
func (r *Reader) Fixed(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail(ErrTruncated)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Rest reads every byte left.
func (r *Reader) Rest() []byte { return r.Fixed(uint64(len(r.b))) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if len(r.b) < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.b) < 2 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Uvarint reads an unsigned varint (encoding/binary's format).
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0:
		r.fail(ErrOverCap)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bytes32 reads a uint32 length prefix and that many bytes. A length
// over max is ErrOverCap; one within max but past the end of the input
// is ErrTruncated. (Kept within the inlining budget: parseEntry runs it
// five times per record on every reopen.)
func (r *Reader) Bytes32(max uint64) []byte {
	err := ErrTruncated
	if len(r.b) >= 4 {
		if n := uint64(binary.BigEndian.Uint32(r.b)); n > max {
			err = ErrOverCap
		} else if n <= uint64(len(r.b)-4) {
			v := r.b[4 : 4+n : 4+n]
			r.b = r.b[4+n:]
			return v
		}
	}
	r.fail(err)
	return nil
}

// Done returns the first refusal, or ErrTrailing if bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail(ErrTrailing)
	}
	return r.err
}

// Refuse wraps a Reader error in a decoder's own sentinels: ErrTruncated
// under truncated, the other refusals under malformed. nil stays nil.
func Refuse(err, truncated, malformed error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTruncated):
		return fmt.Errorf("%w: %w", truncated, err)
	default:
		return fmt.Errorf("%w: %w", malformed, err)
	}
}

// AppendU16 appends v big-endian.
func AppendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }

// AppendU32 appends v big-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

// AppendU64 appends v big-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendBytes32 appends b behind its uint32 length prefix: what Bytes32
// reads.
func AppendBytes32[T string | []byte](dst []byte, b T) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(b))), b...)
}
