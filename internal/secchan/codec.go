// Package secchan provides the authenticated-encryption record channel
// that carries credential provisioning between the Verification Manager
// and a credential enclave (step 5 of the paper's workflow). It plays the
// role mbedtls-SGX plays in the paper's implementation: the channel key is
// the SK derived by the remote-attestation key exchange, so confidentiality
// is rooted in attestation evidence rather than certificates.
//
// Records are AES-128-GCM sealed with direction-separated, strictly
// monotonic nonces; replayed, reordered or truncated records fail
// authentication.
package secchan

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"vnfguard/internal/wire"
)

// MaxRecordSize bounds one record's plaintext.
const MaxRecordSize = 1 << 20

// Record types used by the provisioning protocol.
const (
	// TypeProvision carries credential material VM → enclave.
	TypeProvision uint8 = 1
	// TypeAck acknowledges provisioning enclave → VM.
	TypeAck uint8 = 2
	// TypeRevoke orders the enclave to wipe its credentials.
	TypeRevoke uint8 = 3
	// TypeCSR carries a certificate signing request enclave → VM.
	TypeCSR uint8 = 4
	// TypeError reports a failure in either direction.
	TypeError uint8 = 5
)

// Errors.
var (
	ErrRecordTooLarge = errors.New("secchan: record exceeds maximum size")
	ErrAuth           = errors.New("secchan: record authentication failed")
)

// Role determines nonce direction bytes; the two ends must take opposite
// roles.
type Role uint8

// Channel roles.
const (
	RoleInitiator Role = 1 // the Verification Manager side
	RoleResponder Role = 2 // the enclave side
)

// nonce builds the 12-byte record nonce: direction ‖ 0x000000 ‖ seq.
func nonce(dir Role, seq uint64) []byte {
	n := make([]byte, 12)
	n[0] = byte(dir)
	binary.BigEndian.PutUint64(n[4:], seq)
	return n
}

// peer returns the opposite role.
func (r Role) peer() Role {
	if r == RoleInitiator {
		return RoleResponder
	}
	return RoleInitiator
}

// RecordCodec seals and opens records without owning a transport. The
// credential enclave uses a codec so that record decryption happens inside
// the enclave boundary while the untrusted host runtime only moves opaque
// frames.
type RecordCodec struct {
	aead cipher.AEAD
	role Role

	mu      sync.Mutex
	sendSeq uint64
	recvSeq uint64
}

// NewCodec builds a detached codec.
func NewCodec(sk [16]byte, role Role) (*RecordCodec, error) {
	if role != RoleInitiator && role != RoleResponder {
		return nil, fmt.Errorf("secchan: invalid role %d", role)
	}
	block, err := aes.NewCipher(sk[:])
	if err != nil {
		return nil, fmt.Errorf("secchan: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secchan: AEAD: %w", err)
	}
	return &RecordCodec{aead: aead, role: role}, nil
}

// Seal produces a complete frame (header ‖ ciphertext) for one record.
func (c *RecordCodec) Seal(msgType uint8, payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordSize {
		return nil, ErrRecordTooLarge
	}
	c.mu.Lock()
	seq := c.sendSeq
	c.sendSeq++
	c.mu.Unlock()
	n := nonce(c.role, seq)
	ct := c.aead.Seal(nil, n, payload, []byte{msgType})
	frame := wire.AppendU32(make([]byte, 0, 5+len(ct)), uint32(len(ct)))
	return append(append(frame, msgType), ct...), nil
}

// Open authenticates and decrypts a complete frame: u32 ciphertext
// length ‖ type ‖ ciphertext. A frame whose framing does not check out
// is refused like one that fails authentication. Reading the receive
// sequence, authenticating under it and advancing it are one step under
// c.mu, so concurrent Opens of one frame accept it once; a refused
// frame never advances the sequence.
func (c *RecordCodec) Open(frame []byte) (msgType uint8, payload []byte, err error) {
	r := wire.NewReader(frame)
	length := r.U32()
	msgType = r.U8()
	ct := r.Fixed(uint64(length))
	if err := r.Done(); err != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrAuth, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, err = c.aead.Open(nil, nonce(c.role.peer(), c.recvSeq), ct, []byte{msgType})
	if err != nil {
		return 0, nil, ErrAuth
	}
	c.recvSeq++
	return msgType, payload, nil
}
