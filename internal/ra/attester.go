package ra

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rand"
	"errors"
	"fmt"

	"vnfguard/internal/epid"
	"vnfguard/internal/sgx"
)

// Attester errors.
var (
	ErrMsg2MAC        = errors.New("ra: msg2 MAC invalid")
	ErrMsg2Signature  = errors.New("ra: msg2 challenger signature invalid")
	ErrMsg4MAC        = errors.New("ra: msg4 MAC invalid")
	ErrSessionState   = errors.New("ra: message out of session order")
	ErrNotTrusted     = errors.New("ra: challenger reported platform not trusted")
	ErrQuoteGenFailed = errors.New("ra: quote generation failed")
)

// QuoteFunc produces the attestation quote for the given report data. In
// the deployed system this runs EREPORT inside the attesting enclave and
// hands the report to the quoting enclave.
type QuoteFunc func(reportData sgx.ReportData) ([]byte, error)

// Attester is the enclave-side state machine. The challenger's public
// signing key is a construction parameter: in the paper's deployment it is
// baked into the credential enclave's measured code, so only the genuine
// Verification Manager can complete an exchange.
type Attester struct {
	gid      epid.GroupID
	spPub    *ecdsa.PublicKey
	priv     *ecdh.PrivateKey
	ga       []byte
	keys     sessionKeys
	haveKeys bool
	done     bool
}

// NewAttester starts a session and returns msg1.
func NewAttester(gid epid.GroupID, challengerPub *ecdsa.PublicKey) (*Attester, *Msg1, error) {
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("ra: generating ephemeral key: %w", err)
	}
	a := &Attester{
		gid:   gid,
		spPub: challengerPub,
		priv:  priv,
		ga:    priv.PublicKey().Bytes(),
	}
	return a, &Msg1{GID: gid, Ga: append([]byte(nil), a.ga...)}, nil
}

// ProcessMsg2 verifies the challenger's response, derives session keys,
// and produces msg3 containing a quote channel-bound to this exchange.
func (a *Attester) ProcessMsg2(m2 *Msg2, quote QuoteFunc) (*Msg3, error) {
	if a.haveKeys || a.done {
		return nil, ErrSessionState
	}
	gbPub, err := ecdh.P256().NewPublicKey(m2.Gb)
	if err != nil {
		return nil, fmt.Errorf("%w: msg2 Gb: %v", ErrMalformed, err)
	}
	// Verify the challenger's signature over (Gb ‖ Ga) before trusting
	// anything derived from Gb — this authenticates the exchange to the
	// provisioned Verification Manager identity.
	sigInput := append(append([]byte(nil), m2.Gb...), a.ga...)
	digest := sigDigest(sigInput)
	if !ecdsa.VerifyASN1(a.spPub, digest[:], m2.SigSP) {
		return nil, ErrMsg2Signature
	}
	shared, err := a.priv.ECDH(gbPub)
	if err != nil {
		return nil, fmt.Errorf("ra: ECDH: %w", err)
	}
	keys := deriveKeys(shared)
	if !macEqual(mac(keys.smk, m2.macInput()), m2.MAC) {
		return nil, ErrMsg2MAC
	}
	a.keys = keys
	a.haveKeys = true

	rd := sgx.ReportDataFromHash(reportDataFor(a.ga, m2.Gb, keys.vk))
	quoteBytes, err := quote(rd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrQuoteGenFailed, err)
	}
	m3 := &Msg3{Ga: append([]byte(nil), a.ga...), Quote: quoteBytes}
	m3.MAC = mac(keys.smk, m3.macInput())
	return m3, nil
}

// ProcessMsg4 authenticates the attestation result. On a trusted verdict
// the session keys become available for the secure channel.
func (a *Attester) ProcessMsg4(m4 *Msg4) error {
	if !a.haveKeys || a.done {
		return ErrSessionState
	}
	if !macEqual(mac(a.keys.mk, m4.macInput()), m4.MAC) {
		return ErrMsg4MAC
	}
	a.done = true
	if !m4.Trusted {
		return fmt.Errorf("%w: %s", ErrNotTrusted, m4.Status)
	}
	return nil
}

// SessionKey returns SK after a completed, trusted exchange.
func (a *Attester) SessionKey() ([SessionKeySize]byte, error) {
	if !a.done {
		return [SessionKeySize]byte{}, ErrSessionState
	}
	return a.keys.sk, nil
}

// MACKey returns MK after a completed, trusted exchange.
func (a *Attester) MACKey() ([32]byte, error) {
	if !a.done {
		return [32]byte{}, ErrSessionState
	}
	return a.keys.mk, nil
}
