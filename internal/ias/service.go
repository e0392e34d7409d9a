// Package ias models the Intel Attestation Service: the hosted endpoint
// that validates EPID quotes against group keys and revocation lists and
// returns signed Attestation Verification Reports (AVRs). The Verification
// Manager consults it in steps 2 and 4 of the paper's workflow, both to
// "verify the validity of the enclave key against the revocation list and
// the validity of the integrity quote".
//
// The service is faithful in interface shape (report API with subscription
// keys, signed AVR with status vocabulary, SigRL distribution) while
// running locally; the WAN round trip is charged to the client's cost
// model (simtime.OpIASRoundTrip).
package ias

import (
	"errors"
	"fmt"
	"sync"

	"vnfguard/internal/epid"
	"vnfguard/internal/sgx"
	"vnfguard/internal/sigmemo"
)

// QuoteStatus is the isvEnclaveQuoteStatus vocabulary of AVRs.
type QuoteStatus string

// Quote statuses returned by the service.
const (
	StatusOK               QuoteStatus = "OK"
	StatusSignatureInvalid QuoteStatus = "SIGNATURE_INVALID"
	StatusGroupRevoked     QuoteStatus = "GROUP_REVOKED"
	StatusSignatureRevoked QuoteStatus = "SIGNATURE_REVOKED"
	StatusKeyRevoked       QuoteStatus = "KEY_REVOKED"
	StatusGroupOutOfDate   QuoteStatus = "GROUP_OUT_OF_DATE"
)

// Trusted reports whether a status denotes a platform in good standing.
// GROUP_OUT_OF_DATE is advisory (the platform needs a microcode update)
// and is treated as untrusted by the fail-closed appraisal policy.
func (s QuoteStatus) Trusted() bool { return s == StatusOK }

// ErrUnknownGroup is returned for quotes from unregistered EPID groups.
var ErrUnknownGroup = errors.New("ias: unknown EPID group")

// Service is the attestation-service core: verification logic plus
// revocation state. HTTP transport lives in http.go.
type Service struct {
	mu     sync.Mutex
	groups map[epid.GroupID]*epid.GroupPublicKey
	rl     epid.RevocationLists
	// minCPUSVN is the lowest CPU security version considered up to date.
	minCPUSVN byte
	signer    *reportSigner
	// subscriptionKeys gates API access as IAS does.
	subscriptionKeys map[string]bool
	reports          int64
	// creds remembers EPID membership credentials (group key over member
	// key) that verified. Revocation lists, the quote's member signature
	// and the AVR signature still run for every quote.
	creds *sigmemo.Memo
}

// NewService creates a service trusting the given groups. At least one
// subscription key must be registered before HTTP access succeeds.
func NewService(groups ...*epid.GroupPublicKey) (*Service, error) {
	signer, err := newReportSigner()
	if err != nil {
		return nil, err
	}
	s := &Service{
		groups:           make(map[epid.GroupID]*epid.GroupPublicKey),
		minCPUSVN:        1,
		signer:           signer,
		subscriptionKeys: make(map[string]bool),
		creds:            sigmemo.New(),
	}
	for _, g := range groups {
		s.groups[g.GID] = g
	}
	return s, nil
}

// RegisterGroup adds an EPID group after construction.
func (s *Service) RegisterGroup(g *epid.GroupPublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups[g.GID] = g
}

// AddSubscriptionKey registers an API key (the paper's service-provider
// registration step).
func (s *Service) AddSubscriptionKey(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subscriptionKeys[key] = true
}

func (s *Service) validKey(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subscriptionKeys[key]
}

// SetMinCPUSVN configures the TCB floor below which quotes are reported
// GROUP_OUT_OF_DATE.
func (s *Service) SetMinCPUSVN(v byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.minCPUSVN = v
}

// RevokeGroup adds a group to the group revocation list.
func (s *Service) RevokeGroup(gid epid.GroupID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rl.Groups = append(s.rl.Groups, gid)
}

// RevokePlatformKey adds a leaked member secret to the PrivRL.
func (s *Service) RevokePlatformKey(secret [32]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rl.Priv = append(s.rl.Priv, secret)
}

// RevokeSignature adds a pseudonym to the SigRL.
func (s *Service) RevokeSignature(pseudonym [32]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rl.Sig = append(s.rl.Sig, pseudonym)
}

// SigRL returns the current signature revocation list (distributed to
// challengers for inclusion in msg2 of the RA protocol).
func (s *Service) SigRL() [][32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][32]byte, len(s.rl.Sig))
	copy(out, s.rl.Sig)
	return out
}

// Reports returns the number of verification reports produced.
func (s *Service) Reports() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reports
}

// SigningCertPEM returns the AVR signing certificate that clients pin.
func (s *Service) SigningCertPEM() []byte { return s.signer.certPEM() }

// VerifyQuote runs the full server-side verification of an encoded quote
// and returns a signed AVR. Transport-independent; the HTTP handler and
// in-process callers share it.
func (s *Service) VerifyQuote(quoteBytes []byte, nonce string) (*AVR, error) {
	s.mu.Lock()
	s.reports++
	rl := epid.RevocationLists{
		Priv:   append([][32]byte(nil), s.rl.Priv...),
		Sig:    append([][32]byte(nil), s.rl.Sig...),
		Groups: append([]epid.GroupID(nil), s.rl.Groups...),
	}
	minSVN := s.minCPUSVN
	s.mu.Unlock()

	status := StatusOK
	var quote *sgx.Quote
	quote, err := sgx.DecodeQuote(quoteBytes)
	if err != nil {
		return nil, fmt.Errorf("ias: malformed quote: %w", err)
	}

	s.mu.Lock()
	gpk, ok := s.groups[quote.GID]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: gid %d", ErrUnknownGroup, quote.GID)
	}

	switch verr := sgx.VerifyQuote(quote, gpk, &rl, s.creds); {
	case verr == nil:
		if quote.Body.CPUSVN[0] < minSVN {
			status = StatusGroupOutOfDate
		}
	case errors.Is(verr, epid.ErrGroupRevoked):
		status = StatusGroupRevoked
	case errors.Is(verr, epid.ErrSignatureRevoked):
		status = StatusSignatureRevoked
	case errors.Is(verr, epid.ErrMemberRevoked):
		status = StatusKeyRevoked
	default:
		status = StatusSignatureInvalid
	}

	return s.signer.sign(status, quoteBytes, nonce)
}
