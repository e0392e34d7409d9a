package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// sample is one value of every field kind a Reader reads.
type sample struct {
	a       uint8
	b       uint16
	c       uint32
	d       uint64
	v       uint64
	fixed   []byte
	payload []byte
}

func (s sample) encode() []byte {
	out := append([]byte(nil), s.a)
	out = AppendU16(out, s.b)
	out = AppendU32(out, s.c)
	out = AppendU64(out, s.d)
	out = binary.AppendUvarint(out, s.v)
	out = append(out, s.fixed...)
	return AppendBytes32(out, s.payload)
}

// sampleCap is the payload cap the table decodes under.
const sampleCap = 16

func decodeSample(b []byte) (sample, error) {
	r := NewReader(b)
	s := sample{a: r.U8(), b: r.U16(), c: r.U32(), d: r.U64(), v: r.Uvarint()}
	s.fixed = r.Fixed(3)
	s.payload = r.Bytes32(sampleCap)
	return s, r.Done()
}

// TestReaderRefusals: each way an encoding can be wrong reads as exactly
// its own refusal, and an accepted one decodes to what was encoded.
func TestReaderRefusals(t *testing.T) {
	valid := sample{a: 1, b: 0x0203, c: 0x04050607, d: 1 << 60, v: 300, fixed: []byte("xyz"), payload: []byte("payload")}
	enc := valid.encode()
	got, err := decodeSample(enc)
	if err != nil || got.a != valid.a || got.b != valid.b || got.c != valid.c || got.d != valid.d ||
		got.v != valid.v || !bytes.Equal(got.fixed, valid.fixed) || !bytes.Equal(got.payload, valid.payload) {
		t.Fatalf("valid encoding: got %+v, %v", got, err)
	}

	overCap := valid
	overCap.payload = make([]byte, sampleCap+1)
	sampleErr := func(b []byte) error { _, err := decodeSample(b); return err }
	capped := func(b []byte) error { r := NewReader(b); r.Bytes32(sampleCap); return r.Done() }
	unbounded := func(b []byte) error { r := NewReader(b); r.Bytes32(Unbounded); return r.Done() }
	uvarint := func(b []byte) error { r := NewReader(b); r.Uvarint(); return r.Done() }
	type row struct {
		name   string
		decode func([]byte) error
		data   []byte
		want   error
	}
	huge := AppendU32(nil, 0xFFFFFFFF)
	rows := []row{
		{"length 0xFFFFFFFF over a short input", capped, append(huge, 1, 2, 3), ErrOverCap},
		{"length 0xFFFFFFFF over a short input, no cap", unbounded, append(huge, 1, 2, 3), ErrTruncated},
		{"length over the cap", sampleErr, overCap.encode(), ErrOverCap},
		{"uvarint over 64 bits", uvarint, bytes.Repeat([]byte{0xFF}, 11), ErrOverCap},
		{"one extra byte", sampleErr, append(bytes.Clone(enc), 0), ErrTrailing},
	}
	for n := range enc {
		rows = append(rows, row{fmt.Sprintf("cut to %d bytes", n), sampleErr, enc[:n], ErrTruncated})
	}
	for _, row := range rows {
		if err := row.decode(row.data); !errors.Is(err, row.want) {
			t.Errorf("%s: got %v, want %v", row.name, err, row.want)
		}
	}
}

// TestReaderRefusesBeforeAllocating: a hostile length is refused with
// nothing allocated, and a refused Reader stays refused.
func TestReaderRefusesBeforeAllocating(t *testing.T) {
	data := append(AppendU32(nil, 0xFFFFFFFF), 1, 2, 3)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(data)
		if r.Bytes32(Unbounded) != nil || r.U8() != 0 || r.Fixed(0) != nil {
			panic("read past a refusal returned data")
		}
		err = r.Done()
	})
	if allocs != 0 || !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v with %v allocations, want ErrTruncated with none", err, allocs)
	}
}

// TestRefuseWrapsInPackageSentinels: Refuse maps truncation to the
// truncated sentinel and everything else to the malformed one, keeping
// the Reader's error visible too.
func TestRefuseWrapsInPackageSentinels(t *testing.T) {
	malformed := errors.New("pkg: malformed")
	truncated := errors.New("pkg: truncated")
	for _, c := range []struct {
		err, want error
	}{
		{ErrTruncated, truncated},
		{ErrOverCap, malformed},
		{ErrTrailing, malformed},
	} {
		got := Refuse(c.err, truncated, malformed)
		if !errors.Is(got, c.want) || !errors.Is(got, c.err) {
			t.Errorf("Refuse(%v) = %v, want it to wrap %v", c.err, got, c.want)
		}
	}
	if Refuse(nil, truncated, malformed) != nil {
		t.Error("Refuse(nil) is not nil")
	}
}
