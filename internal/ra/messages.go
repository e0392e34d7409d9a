package ra

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vnfguard/internal/epid"
)

// Decode refusals. Every DecodeMsg1–DecodeMsg4 error wraps ErrMalformed;
// ErrTruncated narrows it to an encoding that ends inside a field.
var (
	ErrMalformed = errors.New("ra: malformed message")
	ErrTruncated = fmt.Errorf("%w: truncated", ErrMalformed)
)

// Msg1 opens the exchange: the attester's ephemeral ECDH public key and
// its platform's EPID group.
type Msg1 struct {
	GID epid.GroupID
	Ga  []byte // uncompressed P-256 point (65 bytes)
}

// Encode serialises msg1.
func (m *Msg1) Encode() []byte {
	out := make([]byte, 0, 4+4+len(m.Ga))
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(m.GID))
	out = append(out, u32[:]...)
	out = appendBytes(out, m.Ga)
	return out
}

// DecodeMsg1 parses msg1.
func DecodeMsg1(b []byte) (*Msg1, error) {
	if len(b) < 8 {
		return nil, ErrTruncated
	}
	m := &Msg1{GID: epid.GroupID(binary.BigEndian.Uint32(b[:4]))}
	var err error
	if m.Ga, b, err = readBytes(b[4:]); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in msg1", ErrMalformed, len(b))
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
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], m.QuoteType)
	out = append(out, u16[:]...)
	binary.BigEndian.PutUint16(u16[:], m.KDFID)
	out = append(out, u16[:]...)
	out = append(out, m.SigSP...)
	return out
}

// Encode serialises msg2.
func (m *Msg2) Encode() []byte {
	out := appendBytes(nil, m.Gb)
	out = append(out, m.SPID[:]...)
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], m.QuoteType)
	out = append(out, u16[:]...)
	binary.BigEndian.PutUint16(u16[:], m.KDFID)
	out = append(out, u16[:]...)
	out = appendBytes(out, m.SigSP)
	out = append(out, m.MAC[:]...)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(m.SigRL)))
	out = append(out, n[:]...)
	for _, p := range m.SigRL {
		out = append(out, p[:]...)
	}
	return out
}

// DecodeMsg2 parses msg2.
func DecodeMsg2(b []byte) (*Msg2, error) {
	m := &Msg2{}
	var err error
	if m.Gb, b, err = readBytes(b); err != nil {
		return nil, err
	}
	if len(b) < 16+4 {
		return nil, ErrTruncated
	}
	copy(m.SPID[:], b[:16])
	m.QuoteType = binary.BigEndian.Uint16(b[16:18])
	m.KDFID = binary.BigEndian.Uint16(b[18:20])
	if m.SigSP, b, err = readBytes(b[20:]); err != nil {
		return nil, err
	}
	if len(b) < 32+4 {
		return nil, ErrTruncated
	}
	copy(m.MAC[:], b[:32])
	// The SigRL count comes from an unauthenticated peer: it is checked
	// against the bytes that remain, in 64 bits so count*32 cannot wrap,
	// before anything is allocated for it.
	count := uint64(binary.BigEndian.Uint32(b[32:36]))
	b = b[36:]
	if uint64(len(b)) < count*32 {
		return nil, ErrTruncated
	}
	if uint64(len(b)) != count*32 {
		return nil, fmt.Errorf("%w: %d trailing bytes in msg2", ErrMalformed, uint64(len(b))-count*32)
	}
	m.SigRL = make([][32]byte, count)
	for i := range m.SigRL {
		copy(m.SigRL[i][:], b[i*32:(i+1)*32])
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
	out := make([]byte, 0, 32+8+len(m.Ga)+len(m.Quote))
	out = append(out, m.MAC[:]...)
	out = appendBytes(out, m.Ga)
	out = appendBytes(out, m.Quote)
	return out
}

// DecodeMsg3 parses msg3.
func DecodeMsg3(b []byte) (*Msg3, error) {
	if len(b) < 32 {
		return nil, ErrTruncated
	}
	m := &Msg3{}
	copy(m.MAC[:], b[:32])
	var err error
	if m.Ga, b, err = readBytes(b[32:]); err != nil {
		return nil, err
	}
	if m.Quote, b, err = readBytes(b); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in msg3", ErrMalformed, len(b))
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
	out = appendBytes(out, []byte(m.Status))
	out = append(out, m.MAC[:]...)
	return out
}

// DecodeMsg4 parses msg4.
func DecodeMsg4(b []byte) (*Msg4, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	if b[0] > 1 {
		return nil, fmt.Errorf("%w: msg4 trust flag %d", ErrMalformed, b[0])
	}
	m := &Msg4{Trusted: b[0] == 1}
	status, b, err := readBytes(b[1:])
	if err != nil {
		return nil, err
	}
	m.Status = string(status)
	if len(b) < 32 {
		return nil, ErrTruncated
	}
	if len(b) > 32 {
		return nil, fmt.Errorf("%w: %d trailing bytes in msg4", ErrMalformed, len(b)-32)
	}
	copy(m.MAC[:], b)
	return m, nil
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
	if uint64(len(b)) < uint64(n) {
		return nil, nil, ErrTruncated
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}
