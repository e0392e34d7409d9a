package ra

import (
	"errors"
	"fmt"

	"vnfguard/internal/epid"
	"vnfguard/internal/wire"
)

// Decode refusals. Every DecodeMsg1–DecodeMsg4 error wraps ErrMalformed;
// ErrTruncated narrows it to an encoding that ends inside a field.
var (
	ErrMalformed = errors.New("ra: malformed message")
	ErrTruncated = fmt.Errorf("%w: truncated", ErrMalformed)
)

// maxField caps each length-prefixed field. The largest real one is
// msg3's quote, a few hundred bytes.
const maxField = 1 << 20

// refuse wraps a wire refusal of the named message in the RA sentinels.
func refuse(msg string, err error) error {
	return wire.Refuse(fmt.Errorf("%s: %w", msg, err), ErrTruncated, ErrMalformed)
}

// clone copies b, an empty field to nil.
func clone(b []byte) []byte { return append([]byte(nil), b...) }

// Msg1 opens the exchange: the attester's ephemeral ECDH public key and
// its platform's EPID group.
type Msg1 struct {
	GID epid.GroupID
	Ga  []byte // uncompressed P-256 point (65 bytes)
}

// Encode serialises msg1.
func (m *Msg1) Encode() []byte {
	out := wire.AppendU32(make([]byte, 0, 4+4+len(m.Ga)), uint32(m.GID))
	return wire.AppendBytes32(out, m.Ga)
}

// DecodeMsg1 parses msg1.
func DecodeMsg1(b []byte) (*Msg1, error) {
	r := wire.NewReader(b)
	m := &Msg1{GID: epid.GroupID(r.U32())}
	m.Ga = clone(r.Bytes32(maxField))
	if err := r.Done(); err != nil {
		return nil, refuse("msg1", err)
	}
	return m, nil
}

// Msg2 is the challenger's response: its ephemeral key, service-provider
// ID, quote parameters, a signature binding both ephemeral keys to the
// challenger's long-term identity, an SMK MAC, and the current SigRL.
type Msg2 struct {
	Gb        []byte
	SPID      [16]byte
	QuoteType uint16 // 0 unlinkable, 1 linkable
	KDFID     uint16
	// SigSP is the challenger's ECDSA signature over (Gb ‖ Ga).
	SigSP []byte
	// MAC is SMK-keyed over the preceding fields.
	MAC [32]byte
	// SigRL is the signature revocation list for the attester's group.
	SigRL [][32]byte
}

// macInput returns the bytes covered by msg2's MAC.
func (m *Msg2) macInput() []byte {
	out := make([]byte, 0, len(m.Gb)+16+4+len(m.SigSP))
	out = append(out, m.Gb...)
	out = append(out, m.SPID[:]...)
	out = wire.AppendU16(out, m.QuoteType)
	out = wire.AppendU16(out, m.KDFID)
	return append(out, m.SigSP...)
}

// Encode serialises msg2.
func (m *Msg2) Encode() []byte {
	out := wire.AppendBytes32(nil, m.Gb)
	out = append(out, m.SPID[:]...)
	out = wire.AppendU16(out, m.QuoteType)
	out = wire.AppendU16(out, m.KDFID)
	out = wire.AppendBytes32(out, m.SigSP)
	out = append(out, m.MAC[:]...)
	out = wire.AppendU32(out, uint32(len(m.SigRL)))
	for _, p := range m.SigRL {
		out = append(out, p[:]...)
	}
	return out
}

// DecodeMsg2 parses msg2.
func DecodeMsg2(b []byte) (*Msg2, error) {
	r := wire.NewReader(b)
	m := &Msg2{Gb: clone(r.Bytes32(maxField))}
	copy(m.SPID[:], r.Fixed(16))
	m.QuoteType = r.U16()
	m.KDFID = r.U16()
	m.SigSP = clone(r.Bytes32(maxField))
	copy(m.MAC[:], r.Fixed(32))
	// The SigRL count comes from an unauthenticated peer: the cursor
	// checks count*32 (in 64 bits, so it cannot wrap) against the bytes
	// left before anything is sized from it.
	sigRL := r.Fixed(uint64(r.U32()) * 32)
	if err := r.Done(); err != nil {
		return nil, refuse("msg2", err)
	}
	m.SigRL = make([][32]byte, len(sigRL)/32)
	for i := range m.SigRL {
		copy(m.SigRL[i][:], sigRL[i*32:])
	}
	return m, nil
}

// Msg3 carries the attester's quote, channel-bound to the exchange via
// report data, and an SMK MAC over (Ga ‖ Quote).
type Msg3 struct {
	MAC   [32]byte
	Ga    []byte
	Quote []byte
}

func (m *Msg3) macInput() []byte {
	out := make([]byte, 0, len(m.Ga)+len(m.Quote))
	out = append(out, m.Ga...)
	out = append(out, m.Quote...)
	return out
}

// Encode serialises msg3.
func (m *Msg3) Encode() []byte {
	out := append(make([]byte, 0, 32+8+len(m.Ga)+len(m.Quote)), m.MAC[:]...)
	out = wire.AppendBytes32(out, m.Ga)
	return wire.AppendBytes32(out, m.Quote)
}

// DecodeMsg3 parses msg3.
func DecodeMsg3(b []byte) (*Msg3, error) {
	r := wire.NewReader(b)
	m := &Msg3{}
	copy(m.MAC[:], r.Fixed(32))
	m.Ga = clone(r.Bytes32(maxField))
	m.Quote = clone(r.Bytes32(maxField))
	if err := r.Done(); err != nil {
		return nil, refuse("msg3", err)
	}
	return m, nil
}

// Msg4 is the attestation result delivered back to the enclave, MACed
// with MK so the enclave knows it came from the challenger it keyed with.
type Msg4 struct {
	Trusted bool
	// Status carries the IAS quote status (or appraisal failure reason).
	Status string
	MAC    [32]byte
}

func (m *Msg4) macInput() []byte {
	out := make([]byte, 0, 1+len(m.Status))
	if m.Trusted {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, []byte(m.Status)...)
	return out
}

// Encode serialises msg4.
func (m *Msg4) Encode() []byte {
	out := make([]byte, 0, 1+4+len(m.Status)+32)
	if m.Trusted {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = wire.AppendBytes32(out, m.Status)
	return append(out, m.MAC[:]...)
}

// DecodeMsg4 parses msg4.
func DecodeMsg4(b []byte) (*Msg4, error) {
	r := wire.NewReader(b)
	flag := r.U8()
	m := &Msg4{Trusted: flag == 1, Status: string(r.Bytes32(maxField))}
	copy(m.MAC[:], r.Fixed(32))
	if err := r.Done(); err != nil {
		return nil, refuse("msg4", err)
	}
	if flag > 1 {
		return nil, fmt.Errorf("%w: msg4 trust flag %d", ErrMalformed, flag)
	}
	return m, nil
}
