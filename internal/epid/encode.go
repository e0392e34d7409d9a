package epid

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode refusals. Every DecodeSignature error wraps ErrMalformedSignature;
// ErrTruncated narrows it to an encoding that ends inside a field.
var (
	ErrMalformedSignature = errors.New("epid: malformed signature encoding")
	ErrTruncated          = fmt.Errorf("%w: truncated", ErrMalformedSignature)
)

// Encode serialises the signature with a deterministic length-prefixed
// binary layout (the SGX quote carries this blob opaquely).
func (s *Signature) Encode() []byte {
	out := make([]byte, 0, 64+len(s.MemberPub)+len(s.Credential)+len(s.Basename)+len(s.Sig))
	var u32 [4]byte
	var u64 [8]byte
	binary.BigEndian.PutUint32(u32[:], uint32(s.GID))
	out = append(out, u32[:]...)
	binary.BigEndian.PutUint64(u64[:], s.MemberID)
	out = append(out, u64[:]...)
	out = appendBytes(out, s.MemberPub)
	out = appendBytes(out, s.Credential)
	out = append(out, s.Pseudonym[:]...)
	out = appendBytes(out, s.Basename)
	out = appendBytes(out, s.Sig)
	return out
}

// DecodeSignature parses an encoded signature.
func DecodeSignature(b []byte) (*Signature, error) {
	s := &Signature{}
	if len(b) < 12 {
		return nil, ErrTruncated
	}
	s.GID = GroupID(binary.BigEndian.Uint32(b[0:4]))
	s.MemberID = binary.BigEndian.Uint64(b[4:12])
	b = b[12:]
	var err error
	if s.MemberPub, b, err = readBytes(b); err != nil {
		return nil, err
	}
	if s.Credential, b, err = readBytes(b); err != nil {
		return nil, err
	}
	if len(b) < 32 {
		return nil, ErrTruncated
	}
	copy(s.Pseudonym[:], b[:32])
	b = b[32:]
	if s.Basename, b, err = readBytes(b); err != nil {
		return nil, err
	}
	if s.Sig, b, err = readBytes(b); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformedSignature, len(b))
	}
	return s, nil
}

func appendBytes(dst, b []byte) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	dst = append(dst, n[:]...)
	return append(dst, b...)
}

func readBytes(b []byte) (val, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b[:4])
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, ErrTruncated
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}
