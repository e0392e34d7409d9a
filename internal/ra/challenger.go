package ra

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"vnfguard/internal/sgx"
)

// Challenger errors.
var (
	ErrMsg3MAC          = errors.New("ra: msg3 MAC invalid")
	ErrMsg3GaMismatch   = errors.New("ra: msg3 Ga differs from msg1")
	ErrQuoteBinding     = errors.New("ra: quote report data does not bind this exchange")
	ErrEvidenceRejected = errors.New("ra: attestation evidence rejected")
)

// EvidenceCheck validates the quote (IAS verification plus any appraisal
// of the quoted identity). It returns a human-readable status string used
// in msg4, and an error when the platform must not be trusted.
type EvidenceCheck func(quote []byte) (status string, err error)

// Challenger is the service-provider-side state machine (one session).
type Challenger struct {
	spid      sgx.SPID
	signKey   *ecdsa.PrivateKey
	quoteType sgx.QuoteSignType

	priv  *ecdh.PrivateKey
	ga    []byte
	gb    []byte
	keys  sessionKeys
	state int // 0 new, 1 sent msg2, 2 done
	// quote holds the verified evidence after msg3.
	quote *sgx.Quote
}

// NewChallenger creates a session for one attester.
func NewChallenger(spid sgx.SPID, signKey *ecdsa.PrivateKey, quoteType sgx.QuoteSignType) *Challenger {
	return &Challenger{spid: spid, signKey: signKey, quoteType: quoteType}
}

// sigDigest hashes signature inputs for the challenger's long-term key.
func sigDigest(input []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("ra-msg2-sig-v1"))
	h.Write(input)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ProcessMsg1 derives the shared keys and builds msg2 carrying the given
// SigRL (fetched from IAS for the attester's GID).
func (c *Challenger) ProcessMsg1(m1 *Msg1, sigRL [][32]byte) (*Msg2, error) {
	if c.state != 0 {
		return nil, ErrSessionState
	}
	gaPub, err := ecdh.P256().NewPublicKey(m1.Ga)
	if err != nil {
		return nil, fmt.Errorf("%w: msg1 Ga: %v", ErrMalformed, err)
	}
	c.priv, err = ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("ra: generating ephemeral key: %w", err)
	}
	c.ga = append([]byte(nil), m1.Ga...)
	c.gb = c.priv.PublicKey().Bytes()
	shared, err := c.priv.ECDH(gaPub)
	if err != nil {
		return nil, fmt.Errorf("ra: ECDH: %w", err)
	}
	c.keys = deriveKeys(shared)

	sigInput := append(append([]byte(nil), c.gb...), c.ga...)
	digest := sigDigest(sigInput)
	sig, err := ecdsa.SignASN1(rand.Reader, c.signKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("ra: signing msg2: %w", err)
	}
	m2 := &Msg2{
		Gb:        append([]byte(nil), c.gb...),
		QuoteType: uint16(c.quoteType),
		KDFID:     1,
		SigSP:     sig,
		SigRL:     sigRL,
	}
	copy(m2.SPID[:], c.spid[:])
	m2.MAC = mac(c.keys.smk, m2.macInput())
	c.state = 1
	return m2, nil
}

// ProcessMsg3 authenticates the quote's transport MAC and channel binding,
// delegates evidence validation, and returns the MACed result message.
// The returned msg4 reflects rejection rather than suppressing it, so the
// enclave learns the outcome; the error mirrors the verdict for the
// challenger's own control flow.
func (c *Challenger) ProcessMsg3(m3 *Msg3, check EvidenceCheck) (*Msg4, error) {
	if c.state != 1 {
		return nil, ErrSessionState
	}
	c.state = 2
	if !macEqual(mac(c.keys.smk, m3.macInput()), m3.MAC) {
		return nil, ErrMsg3MAC
	}
	if !bytes.Equal(m3.Ga, c.ga) {
		return nil, ErrMsg3GaMismatch
	}
	quote, err := sgx.DecodeQuote(m3.Quote)
	if err != nil {
		return nil, fmt.Errorf("ra: msg3 quote: %w", err)
	}
	wantRD := sgx.ReportDataFromHash(reportDataFor(c.ga, c.gb, c.keys.vk))
	if quote.Body.ReportData != wantRD {
		return nil, ErrQuoteBinding
	}

	status, err := check(m3.Quote)
	m4 := &Msg4{Trusted: err == nil, Status: status}
	m4.MAC = mac(c.keys.mk, m4.macInput())
	if err != nil {
		c.quote = nil
		return m4, fmt.Errorf("%w: %w", ErrEvidenceRejected, err)
	}
	c.quote = quote
	return m4, nil
}

// Quote returns the verified quote after a successful exchange.
func (c *Challenger) Quote() *sgx.Quote { return c.quote }

// SessionKey returns SK after a successful exchange.
func (c *Challenger) SessionKey() ([SessionKeySize]byte, error) {
	if c.state != 2 || c.quote == nil {
		return [SessionKeySize]byte{}, ErrSessionState
	}
	return c.keys.sk, nil
}

// MACKey returns MK after a successful exchange.
func (c *Challenger) MACKey() ([32]byte, error) {
	if c.state != 2 || c.quote == nil {
		return [32]byte{}, ErrSessionState
	}
	return c.keys.mk, nil
}
