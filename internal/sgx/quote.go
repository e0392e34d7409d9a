package sgx

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"vnfguard/internal/epid"
	"vnfguard/internal/sigmemo"
	"vnfguard/internal/wire"
)

// SPID is the service-provider ID registered with the attestation service;
// linkable quotes use it as the EPID basename.
type SPID [16]byte

// QuoteSignType selects linkable or unlinkable EPID signatures.
type QuoteSignType uint16

// Quote signature types.
const (
	QuoteUnlinkable QuoteSignType = 0
	QuoteLinkable   QuoteSignType = 1
)

// QuoteVersion is the quote format version produced by this QE.
const QuoteVersion uint16 = 2

// Quote is the remotely-verifiable attestation evidence: the report body
// signed by the platform's EPID membership.
type Quote struct {
	Version  uint16
	SignType QuoteSignType
	GID      epid.GroupID
	QESVN    uint16
	PCESVN   uint16
	Basename [32]byte
	Body     ReportBody
	// Signature is the encoded EPID signature over the quote's signed
	// payload.
	Signature []byte
}

// signedPayload is the byte string covered by the EPID signature.
func (q *Quote) signedPayload() []byte {
	out := make([]byte, 0, 2+2+4+2+2+32+reportBodyLen)
	var u16 [2]byte
	var u32 [4]byte
	binary.LittleEndian.PutUint16(u16[:], q.Version)
	out = append(out, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], uint16(q.SignType))
	out = append(out, u16[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(q.GID))
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint16(u16[:], q.QESVN)
	out = append(out, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], q.PCESVN)
	out = append(out, u16[:]...)
	out = append(out, q.Basename[:]...)
	out = append(out, q.Body.Encode()...)
	return out
}

// Encode serialises the quote for transport to the attestation service.
func (q *Quote) Encode() []byte {
	return wire.AppendBytes32(q.signedPayload(), q.Signature)
}

// quoteFixedLen is the length of the fixed (signed) prefix of an encoded
// quote.
const quoteFixedLen = 2 + 2 + 4 + 2 + 2 + 32 + reportBodyLen

// maxQuoteSig caps the quote's signature field, an encoded EPID
// signature of a few hundred bytes.
const maxQuoteSig = 64 << 10

// ErrMalformedQuote is wrapped by every DecodeQuote refusal.
var ErrMalformedQuote = errors.New("sgx: malformed quote")

// DecodeQuote parses an encoded quote: the fixed signed prefix, then the
// length-prefixed signature. Quotes arrive from untrusted hosts, so
// every refusal wraps ErrMalformedQuote. It copies what it keeps.
func DecodeQuote(b []byte) (*Quote, error) {
	r := wire.NewReader(b)
	fixed := r.Fixed(quoteFixedLen)
	sig := r.Bytes32(maxQuoteSig)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformedQuote, err)
	}
	body, err := decodeReportBody(fixed[44:])
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformedQuote, err)
	}
	le := binary.LittleEndian
	q := &Quote{
		Version:   le.Uint16(fixed[0:2]),
		SignType:  QuoteSignType(le.Uint16(fixed[2:4])),
		GID:       epid.GroupID(le.Uint32(fixed[4:8])),
		QESVN:     le.Uint16(fixed[8:10]),
		PCESVN:    le.Uint16(fixed[10:12]),
		Body:      body,
		Signature: append([]byte(nil), sig...),
	}
	copy(q.Basename[:], fixed[12:44])
	return q, nil
}

// VerifyQuote checks the quote's EPID signature under the group public key
// and revocation lists. It is the core of what IAS does server-side.
// creds is the verifier's membership-credential memo (see epid.Verify);
// nil checks the credential every time.
func VerifyQuote(q *Quote, gpk *epid.GroupPublicKey, rl *epid.RevocationLists, creds *sigmemo.Memo) error {
	sig, err := epid.DecodeSignature(q.Signature)
	if err != nil {
		return fmt.Errorf("sgx: quote signature: %w", err)
	}
	return epid.Verify(gpk, q.signedPayload(), sig, rl, creds)
}

// qeMeasurement is the well-known measurement of the quoting enclave code,
// identical across platforms running the same QE build.
var qeMeasurement = Measurement(sha256.Sum256([]byte("vnfguard-quoting-enclave-v1")))

// QuotingEnclave models the architectural quoting enclave: it verifies
// locally-attested reports targeted at itself and converts them into
// EPID-signed quotes.
type QuotingEnclave struct {
	platform *Platform
	member   *epid.Member
	svn      uint16
}

func newQuotingEnclave(p *Platform, m *epid.Member) *QuotingEnclave {
	return &QuotingEnclave{platform: p, member: m, svn: 1}
}

// TargetInfo returns the QE's target info; application enclaves direct
// their reports here for quoting.
func (qe *QuotingEnclave) TargetInfo() TargetInfo {
	return TargetInfo{MRENCLAVE: qeMeasurement, Attributes: Attributes{Mode64: true}}
}

// GID returns the EPID group of this QE.
func (qe *QuotingEnclave) GID() epid.GroupID { return qe.member.GroupID() }

// GetQuote verifies the local report and produces an EPID quote. Linkable
// quotes use the SPID as basename; unlinkable quotes use a fresh random
// basename. Charges OpQuote (the dominant attestation cost on hardware).
func (qe *QuotingEnclave) GetQuote(report *Report, spid SPID, signType QuoteSignType) (*Quote, error) {
	key := qe.platform.reportKey(qeMeasurement)
	if err := verifyReportMAC(key, report); err != nil {
		return nil, fmt.Errorf("sgx: quoting: %w", err)
	}
	qe.platform.charge(opQuote)

	var basename [32]byte
	switch signType {
	case QuoteLinkable:
		basename = sha256.Sum256(spid[:])
	case QuoteUnlinkable:
		if _, err := rand.Read(basename[:]); err != nil {
			return nil, fmt.Errorf("sgx: quote basename: %w", err)
		}
	default:
		return nil, fmt.Errorf("sgx: unknown quote sign type %d", signType)
	}

	q := &Quote{
		Version:  QuoteVersion,
		SignType: signType,
		GID:      qe.member.GroupID(),
		QESVN:    qe.svn,
		PCESVN:   1,
		Basename: basename,
		Body:     report.Body,
	}
	sig, err := qe.member.Sign(q.signedPayload(), basename[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: quote signing: %w", err)
	}
	q.Signature = sig.Encode()
	return q, nil
}
