package epid

import (
	"bytes"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"testing"
)

// testSignature builds a structurally valid signature without the cost of
// a real group join (these tests exercise only the codec).
func testSignature() *Signature {
	s := &Signature{
		GID:        GroupID(0xDEADBEEF),
		MemberID:   0x1122334455667788,
		MemberPub:  bytes.Repeat([]byte{0x02}, 65),
		Credential: bytes.Repeat([]byte{0x03}, 71),
		Basename:   []byte("service-provider-id"),
		Sig:        bytes.Repeat([]byte{0x04}, 70),
	}
	for i := range s.Pseudonym {
		s.Pseudonym[i] = byte(i)
	}
	return s
}

// TestEncodeDeterministic: the encoding is canonical — equal signatures
// encode identically (quotes carry it opaquely, verifiers hash it).
func TestEncodeDeterministic(t *testing.T) {
	a, b := testSignature().Encode(), testSignature().Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
}

// TestDecodeTruncationExhaustive rejects every strict prefix of a valid
// encoding — all field boundaries, not just sampled offsets.
func TestDecodeTruncationExhaustive(t *testing.T) {
	enc := testSignature().Encode()
	for n := 0; n < len(enc); n++ {
		sig, err := DecodeSignature(enc[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted: %+v", n, len(enc), sig)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d: unexpected error %v", n, err)
		}
	}
}

// TestDecodeLengthPrefixCorruption inflates each of the four length
// prefixes in turn: a hostile length must fail cleanly, not over-read or
// over-allocate.
func TestDecodeLengthPrefixCorruption(t *testing.T) {
	s := testSignature()
	enc := s.Encode()
	// Offsets of the variable-field length prefixes in the layout.
	offsets := []int{
		12,                    // MemberPub
		16 + len(s.MemberPub), // Credential
		20 + len(s.MemberPub) + len(s.Credential) + 32,                   // Basename
		24 + len(s.MemberPub) + len(s.Credential) + 32 + len(s.Basename), // Sig
	}
	for _, off := range offsets {
		for _, evil := range []uint32{1 << 31, 0xFFFFFFFF, uint32(len(enc))} {
			bad := append([]byte(nil), enc...)
			binary.BigEndian.PutUint32(bad[off:], evil)
			if _, err := DecodeSignature(bad); err == nil {
				t.Fatalf("length %#x at offset %d accepted", evil, off)
			}
		}
	}
}

// TestDecodeEmptyFields round-trips a signature whose variable fields are
// all empty — the degenerate but legal shape.
func TestDecodeEmptyFields(t *testing.T) {
	s := &Signature{GID: 1, MemberID: 2}
	dec, err := DecodeSignature(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.GID != 1 || dec.MemberID != 2 || len(dec.MemberPub) != 0 || len(dec.Sig) != 0 {
		t.Fatalf("decode mismatch: %+v", dec)
	}
}

// TestDecodeMutationFuzz flips random bytes/windows of a valid encoding:
// decode must never panic, and when it does succeed, re-encoding must be
// stable (decode∘encode is the identity on accepted inputs).
func TestDecodeMutationFuzz(t *testing.T) {
	enc := testSignature().Encode()
	rng := mrand.New(mrand.NewSource(7))
	for i := 0; i < 5000; i++ {
		bad := append([]byte(nil), enc...)
		for flips := rng.Intn(4) + 1; flips > 0; flips-- {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		dec, err := DecodeSignature(bad)
		if err != nil {
			continue
		}
		if !bytes.Equal(dec.Encode(), bad) {
			t.Fatalf("accepted mutation %d does not re-encode canonically", i)
		}
	}
}

// FuzzDecodeSignature feeds DecodeSignature the opaque signature field of
// a quote from an untrusted host. Accepted bytes re-encode byte-equal, a
// cut one is refused as truncated and an extra byte as malformed; every
// refusal wraps ErrMalformedSignature, never a panic.
func FuzzDecodeSignature(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSignature(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedSignature) {
				t.Fatalf("refusal without ErrMalformedSignature: %v", err)
			}
			return
		}
		enc := s.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatal("accepted signature does not re-encode byte-equal")
		}
		if _, err := DecodeSignature(enc[:len(enc)-1]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut encoding: got %v, want ErrTruncated", err)
		}
		if _, err := DecodeSignature(append(enc, 0)); !errors.Is(err, ErrMalformedSignature) {
			t.Fatalf("extra byte: got %v, want ErrMalformedSignature", err)
		}
	})
}
