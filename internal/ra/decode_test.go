package ra

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestDecodeMsg2SigRLCountOverflow: a SigRL count whose byte length
// wraps in 32 bits (0x08000001 × 32 = 2³² + 32) followed by exactly 32
// bytes must be refused before anything is sized from the count. The
// host agent decodes msg2 from an unauthenticated request, and a 4.3 GB
// allocation there is a fatal out-of-memory no handler can recover.
func TestDecodeMsg2SigRLCountOverflow(t *testing.T) {
	enc := (&Msg2{SigRL: [][32]byte{{1}}}).Encode()
	binary.BigEndian.PutUint32(enc[len(enc)-32-4:], 0x08000001)
	m, err := DecodeMsg2(enc)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("wrapping SigRL count: got %v (msg %v), want ErrTruncated", err, m != nil)
	}
}

// TestDecodeRefusalsNamed: trailing bytes after any message and a msg4
// trust flag other than 0 or 1 are refused with ErrMalformed, not as
// truncation — a flag of 2 used to decode as untrusted and re-encode
// as 0.
func TestDecodeRefusalsNamed(t *testing.T) {
	m1 := (&Msg1{GID: 7, Ga: []byte{4, 1, 2}}).Encode()
	m2 := (&Msg2{Gb: []byte{4}, SigSP: []byte{1}, SigRL: [][32]byte{{9}}}).Encode()
	m3 := (&Msg3{Ga: []byte{4}, Quote: []byte{1, 2}}).Encode()
	m4 := (&Msg4{Trusted: true, Status: "OK"}).Encode()
	bad4 := bytes.Clone(m4)
	bad4[0] = 2
	for name, tc := range map[string]struct {
		decode func([]byte) error
		data   []byte
	}{
		"msg1 trailing": {func(b []byte) error { _, err := DecodeMsg1(b); return err }, append(m1, 0)},
		"msg2 trailing": {func(b []byte) error { _, err := DecodeMsg2(b); return err }, append(m2, 0)},
		"msg3 trailing": {func(b []byte) error { _, err := DecodeMsg3(b); return err }, append(m3, 0)},
		"msg4 trailing": {func(b []byte) error { _, err := DecodeMsg4(b); return err }, append(m4, 0)},
		"msg4 flag 2":   {func(b []byte) error { _, err := DecodeMsg4(b); return err }, bad4},
	} {
		if err := tc.decode(tc.data); !errors.Is(err, ErrMalformed) || errors.Is(err, ErrTruncated) {
			t.Errorf("%s: got %v, want ErrMalformed without ErrTruncated", name, err)
		}
	}
}

// encoder is what every decoded RA message offers back.
type encoder interface{ Encode() []byte }

// decoders index the four message decoders by FuzzDecodeMsg's kind byte.
var decoders = [4]func([]byte) (encoder, error){
	func(b []byte) (encoder, error) { return DecodeMsg1(b) },
	func(b []byte) (encoder, error) { return DecodeMsg2(b) },
	func(b []byte) (encoder, error) { return DecodeMsg3(b) },
	func(b []byte) (encoder, error) { return DecodeMsg4(b) },
}

// FuzzDecodeMsg feeds msg1–msg4 decoding (kind%4 picks the message)
// what an untrusted peer could send: the host agent decodes msg2 and
// msg4 from its HTTP API, the challenger msg1 and msg3 from the host.
// No input panics; every refusal wraps ErrMalformed; an accepted input
// re-encodes byte-identical and is refused once cut or extended by a
// byte.
func FuzzDecodeMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		decode := decoders[kind%4]
		m, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("msg%d refusal without ErrMalformed: %v", kind%4+1, err)
			}
			return
		}
		enc := m.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted msg%d does not re-encode byte-identical", kind%4+1)
		}
		for name, bad := range map[string][]byte{
			"cut":   enc[:len(enc)-1],
			"extra": append(enc, 0),
		} {
			if _, err := decode(bad); !errors.Is(err, ErrMalformed) {
				t.Fatalf("msg%d %s: got %v, want ErrMalformed", kind%4+1, name, err)
			}
		}
	})
}
