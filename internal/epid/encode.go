package epid

import (
	"errors"
	"fmt"

	"vnfguard/internal/wire"
)

// Decode refusals. Every DecodeSignature error wraps ErrMalformedSignature;
// ErrTruncated narrows it to an encoding that ends inside a field.
var (
	ErrMalformedSignature = errors.New("epid: malformed signature encoding")
	ErrTruncated          = fmt.Errorf("%w: truncated", ErrMalformedSignature)
)

// maxSigField caps each length-prefixed signature field. The real ones
// are a P-256 point, an ASN.1 ECDSA signature or a 32-byte basename.
const maxSigField = 64 << 10

// Encode serialises the signature with a deterministic length-prefixed
// binary layout (the SGX quote carries this blob opaquely).
func (s *Signature) Encode() []byte {
	out := make([]byte, 0, 64+len(s.MemberPub)+len(s.Credential)+len(s.Basename)+len(s.Sig))
	out = wire.AppendU32(out, uint32(s.GID))
	out = wire.AppendU64(out, s.MemberID)
	out = wire.AppendBytes32(out, s.MemberPub)
	out = wire.AppendBytes32(out, s.Credential)
	out = append(out, s.Pseudonym[:]...)
	out = wire.AppendBytes32(out, s.Basename)
	return wire.AppendBytes32(out, s.Sig)
}

// DecodeSignature parses an encoded signature. It copies what it keeps.
func DecodeSignature(b []byte) (*Signature, error) {
	r := wire.NewReader(b)
	s := &Signature{GID: GroupID(r.U32()), MemberID: r.U64()}
	s.MemberPub = clone(r.Bytes32(maxSigField))
	s.Credential = clone(r.Bytes32(maxSigField))
	copy(s.Pseudonym[:], r.Fixed(32))
	s.Basename = clone(r.Bytes32(maxSigField))
	s.Sig = clone(r.Bytes32(maxSigField))
	if err := r.Done(); err != nil {
		return nil, wire.Refuse(err, ErrTruncated, ErrMalformedSignature)
	}
	return s, nil
}

// clone copies b, an empty field to nil.
func clone(b []byte) []byte { return append([]byte(nil), b...) }
