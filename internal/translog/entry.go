// Package translog implements a Certificate-Transparency-style audit log
// for the Verification Manager: an append-only Merkle tree over canonical-
// encoded log entries recording every enrollment, attestation verdict,
// credential provisioning and revocation. Tree heads are signed with the
// VM's CA key, so any party holding the CA certificate can audit what the
// trust anchor did — verify that a credential was actually issued by the
// attestation workflow (inclusion proofs), and that the log never rewrote
// history (consistency proofs) — without trusting the VM's word.
//
// The hashing structure follows RFC 6962: leaves are hashed with a 0x00
// domain-separation prefix and interior nodes with 0x01, and inclusion
// and consistency proofs use the Merkle audit paths of §2.1.
package translog

import (
	"bytes"
	"errors"
	"fmt"

	"vnfguard/internal/wire"
)

// EntryType enumerates auditable Verification Manager actions.
type EntryType uint8

// Entry types. Every externally visible trust decision of the VM maps to
// exactly one of these.
const (
	// EntryEnroll records a successful VNF enrollment (steps 3–5).
	EntryEnroll EntryType = 1
	// EntryAttestOK records a passed attestation appraisal (host or VNF).
	EntryAttestOK EntryType = 2
	// EntryAttestFail records a failed attestation appraisal.
	EntryAttestFail EntryType = 3
	// EntryProvision records credential material issued to an enclave,
	// keyed by the certificate serial the controller will later see.
	EntryProvision EntryType = 4
	// EntryRevoke records a credential revocation.
	EntryRevoke EntryType = 5
)

// String names the entry type for reports.
func (t EntryType) String() string {
	switch t {
	case EntryEnroll:
		return "enroll"
	case EntryAttestOK:
		return "attest-ok"
	case EntryAttestFail:
		return "attest-fail"
	case EntryProvision:
		return "provision"
	case EntryRevoke:
		return "revoke"
	default:
		return fmt.Sprintf("entry(%d)", uint8(t))
	}
}

// Errors.
var (
	ErrMalformedEntry = errors.New("translog: malformed entry encoding") //lint:allow unusedexport wire-decode error contract: surfaced wrapped through exported read paths, matched by callers with errors.Is
	ErrUnknownType    = errors.New("translog: unknown entry type")       //lint:allow unusedexport wire-decode error contract: surfaced wrapped through exported read paths, matched by callers with errors.Is
)

// Entry is one auditable event. Fields not meaningful for a given type are
// left empty ("" / nil); the canonical encoding covers every field so two
// distinct events can never collide under the leaf hash.
type Entry struct {
	// Type is the event kind.
	Type EntryType `json:"type"`
	// Timestamp is the VM's event time in Unix milliseconds.
	Timestamp int64 `json:"timestamp"`
	// Actor is the subject of the event: a VNF name for enrollment,
	// provisioning and revocation, a host name for host attestations.
	Actor string `json:"actor"`
	// Host is the container host involved (may equal Actor).
	Host string `json:"host,omitempty"`
	// Serial is the credential certificate serial (decimal), set for
	// enroll, provision and revoke entries — the join key the controller
	// uses to demand proof that a presented certificate was logged.
	Serial string `json:"serial,omitempty"`
	// Measurement is the attested enclave measurement, when applicable.
	Measurement []byte `json:"measurement,omitempty"`
	// Detail carries the appraisal verdict or failure findings.
	Detail string `json:"detail,omitempty"`
}

// entryVersion tags the canonical encoding so it can evolve.
const entryVersion = 1

// Marshal produces the canonical, deterministic encoding that is hashed
// into the tree (and carried on the wire by the log server). Layout:
// version ‖ type ‖ timestamp(8) ‖ len-prefixed actor, host, serial,
// measurement, detail.
func (e Entry) Marshal() []byte {
	return e.appendTo(make([]byte, 0, e.marshalledSize()))
}

// marshalledSize returns the exact canonical encoding length.
func (e Entry) marshalledSize() int {
	return 2 + 8 + 5*4 + len(e.Actor) + len(e.Host) + len(e.Serial) + len(e.Measurement) + len(e.Detail)
}

// appendTo appends the canonical encoding to out — the allocation-free
// form batch committers use to marshal a whole cycle into one arena.
func (e Entry) appendTo(out []byte) []byte {
	out = wire.AppendU64(append(out, entryVersion, byte(e.Type)), uint64(e.Timestamp))
	out = wire.AppendBytes32(out, e.Actor)
	out = wire.AppendBytes32(out, e.Host)
	out = wire.AppendBytes32(out, e.Serial)
	out = wire.AppendBytes32(out, e.Measurement)
	return wire.AppendBytes32(out, e.Detail)
}

// entryFields is a validated canonical encoding viewed in place: the
// byte fields are sub-slices of the parsed buffer, so they are valid
// exactly as long as it is.
type entryFields struct {
	typ       EntryType
	timestamp int64
	// The five length-prefixed fields, in encoding order.
	actor, host, serial, measurement, detail []byte
}

// parseEntry validates a canonical encoding without copying or
// allocating, rejecting a bad version, an unknown type, truncated
// input and trailing bytes. It is the one entry parser: unmarshalEntry
// builds on it, and recovery uses it directly, reading only the type
// and serial of records it never needs to materialise.
func parseEntry(b []byte) (entryFields, error) {
	r := wire.NewReader(b)
	version := r.U8()
	f := entryFields{typ: EntryType(r.U8()), timestamp: int64(r.U64())}
	f.actor = r.Bytes32(wire.Unbounded)
	f.host = r.Bytes32(wire.Unbounded)
	f.serial = r.Bytes32(wire.Unbounded)
	f.measurement = r.Bytes32(wire.Unbounded)
	f.detail = r.Bytes32(wire.Unbounded)
	if err := r.Done(); err != nil {
		return f, fmt.Errorf("%w: %w", ErrMalformedEntry, err)
	}
	if version != entryVersion {
		return f, fmt.Errorf("%w: version %d", ErrMalformedEntry, version)
	}
	if f.typ < EntryEnroll || f.typ > EntryRevoke {
		return f, fmt.Errorf("%w: %d", ErrUnknownType, f.typ)
	}
	return f, nil
}

// unmarshalEntry parses a canonical encoding into an Entry that never
// aliases b: each field is copied exactly once.
func unmarshalEntry(b []byte) (Entry, error) {
	f, err := parseEntry(b)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{Type: f.typ, Timestamp: f.timestamp, Actor: string(f.actor), Host: string(f.host),
		Serial: string(f.serial), Detail: string(f.detail)}
	if len(f.measurement) > 0 {
		e.Measurement = bytes.Clone(f.measurement)
	}
	return e, nil
}
