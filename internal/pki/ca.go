// Package pki implements the certificate authority embedded in the
// Verification Manager. The paper (§3) solves Floodlight's keystore-
// maintenance problem by provisioning the controller with one trusted CA
// and signing every freshly generated VNF client certificate with it; the
// controller then validates signatures instead of tracking individual
// certificates. This package provides that CA: issuance of server and
// client certificates, revocation with signed CRLs, and chain
// verification. A client certificate is issued either straight from a
// public key the caller generated itself (the paper's design, where the
// Verification Manager generates the VNF key pair) or from a CSR, whose
// proof of possession is checked, so the private key can stay inside the
// enclave that generated it.
package pki

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"
)

// Errors.
var (
	ErrRevoked      = errors.New("pki: certificate revoked")
	ErrBadCSR       = errors.New("pki: invalid certificate request")
	ErrNotClient    = errors.New("pki: certificate lacks client-auth usage")
	ErrChainInvalid = errors.New("pki: certificate chain does not verify")
)

// DefaultValidity is the default lifetime of issued certificates. VNF
// credentials are short-lived by design: revocation plus expiry bound the
// exposure window of a compromised enclave.
const DefaultValidity = 24 * time.Hour

// CA is an in-memory certificate authority.
type CA struct {
	key  *ecdsa.PrivateKey
	cert *x509.Certificate

	mu         sync.Mutex
	nextSerial int64
	revoked    map[string]time.Time // serial (decimal) → revocation time
	issued     int
	crlNumber  int64
}

// GenerateKey returns a fresh P-256 key, the curve used throughout the
// deployment.
func GenerateKey() (*ecdsa.PrivateKey, error) {
	return ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
}

// NewCA creates a self-signed root with the given common name.
func NewCA(commonName string, validity time.Duration) (*CA, error) {
	key, err := GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("pki: generating CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: commonName, Organization: []string{"vnfguard"}},
		NotBefore:             time.Now().Add(-time.Minute),
		NotAfter:              time.Now().Add(validity),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLen:            0,
		MaxPathLenZero:        true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("pki: self-signing CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing CA certificate: %w", err)
	}
	return &CA{
		key:        key,
		cert:       cert,
		nextSerial: 2,
		revoked:    make(map[string]time.Time),
	}, nil
}

// Certificate returns the CA certificate.
func (ca *CA) Certificate() *x509.Certificate { return ca.cert }

// Signer exposes the CA key as a crypto.Signer for non-certificate
// signatures rooted in the same trust anchor (the transparency log signs
// its tree heads with it, under a domain-separated prefix).
func (ca *CA) Signer() crypto.Signer { return ca.key }

// CertPEM returns the CA certificate PEM (what gets provisioned into the
// controller's trust store).
func (ca *CA) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.cert.Raw})
}

// Pool returns a cert pool containing only this CA.
func (ca *CA) Pool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.cert)
	return pool
}

// Issued reports how many certificates this CA has signed.
func (ca *CA) Issued() int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.issued
}

func (ca *CA) takeSerial() *big.Int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	s := big.NewInt(ca.nextSerial)
	ca.nextSerial++
	ca.issued++
	return s
}

// IssueServerCert issues a TLS server certificate for the given names
// (used by the network controller and the Verification Manager's own
// endpoints). pub is the server's public key; its private key never
// touches the CA.
func (ca *CA) IssueServerCert(commonName string, dnsNames []string, ips []net.IP, pub crypto.PublicKey, validity time.Duration) (*x509.Certificate, error) {
	if validity <= 0 {
		validity = DefaultValidity
	}
	tmpl := &x509.Certificate{
		SerialNumber: ca.takeSerial(),
		Subject:      pkix.Name{CommonName: commonName},
		NotBefore:    time.Now().Add(-time.Minute),
		NotAfter:     time.Now().Add(validity),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     dnsNames,
		IPAddresses:  ips,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, pub, ca.key)
	if err != nil {
		return nil, fmt.Errorf("pki: issuing server certificate: %w", err)
	}
	return x509.ParseCertificate(der)
}

// SignClientCSR validates a PKCS#10 request — parse, then the
// proof-of-possession signature check — and issues a client-auth
// certificate bound to the CSR's subject and public key. This is the
// hardening mode's issuance path: the key pair is generated inside the
// credential enclave and only the CSR leaves it.
func (ca *CA) SignClientCSR(csrDER []byte, validity time.Duration) (*x509.Certificate, error) {
	csr, err := x509.ParseCertificateRequest(csrDER)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCSR, err)
	}
	if err := csr.CheckSignature(); err != nil {
		return nil, fmt.Errorf("%w: proof of possession failed: %v", ErrBadCSR, err)
	}
	return ca.IssueClientCert(csr.Subject, csr.PublicKey, validity)
}

// IssueClientCert issues a client-auth certificate for subject and pub.
// Callers that hold the key themselves — the Verification Manager, which
// generates the VNF key pair in the paper's design — need no CSR: a
// request signed by a key generated a moment earlier proves nothing the
// caller does not already know.
func (ca *CA) IssueClientCert(subject pkix.Name, pub crypto.PublicKey, validity time.Duration) (*x509.Certificate, error) {
	if validity <= 0 {
		validity = DefaultValidity
	}
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber: ca.takeSerial(),
		Subject:      subject,
		NotBefore:    now.Add(-time.Minute),
		NotAfter:     now.Add(validity),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, pub, ca.key)
	if err != nil {
		return nil, fmt.Errorf("pki: issuing client certificate: %w", err)
	}
	return x509.ParseCertificate(der)
}

// Revoke marks a serial as revoked.
func (ca *CA) Revoke(serial *big.Int) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.revoked[serial.String()] = time.Now()
}

// IsRevoked reports whether a serial has been revoked.
func (ca *CA) IsRevoked(serial *big.Int) bool {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	_, ok := ca.revoked[serial.String()]
	return ok
}

// CRL returns a freshly signed certificate revocation list.
func (ca *CA) CRL(validity time.Duration) (*x509.RevocationList, []byte, error) {
	if validity <= 0 {
		validity = time.Hour
	}
	ca.mu.Lock()
	entries := make([]x509.RevocationListEntry, 0, len(ca.revoked))
	for serial, when := range ca.revoked {
		n := new(big.Int)
		n.SetString(serial, 10)
		entries = append(entries, x509.RevocationListEntry{SerialNumber: n, RevocationTime: when})
	}
	ca.crlNumber++
	num := big.NewInt(ca.crlNumber)
	ca.mu.Unlock()

	tmpl := &x509.RevocationList{
		Number:                    num,
		ThisUpdate:                time.Now(),
		NextUpdate:                time.Now().Add(validity),
		RevokedCertificateEntries: entries,
	}
	der, err := x509.CreateRevocationList(rand.Reader, tmpl, ca.cert, ca.key)
	if err != nil {
		return nil, nil, fmt.Errorf("pki: signing CRL: %w", err)
	}
	parsed, err := x509.ParseRevocationList(der)
	if err != nil {
		return nil, nil, fmt.Errorf("pki: parsing CRL: %w", err)
	}
	return parsed, der, nil
}

// VerifyClient checks that a presented client certificate chains to this
// CA, carries client-auth usage, and is not revoked. It is what the
// controller's trusted-HTTPS mode runs per connection.
func (ca *CA) VerifyClient(cert *x509.Certificate) error {
	opts := x509.VerifyOptions{
		Roots:     ca.Pool(),
		KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}
	if _, err := cert.Verify(opts); err != nil {
		return fmt.Errorf("%w: %v", ErrChainInvalid, err)
	}
	hasClient := false
	for _, eku := range cert.ExtKeyUsage {
		if eku == x509.ExtKeyUsageClientAuth {
			hasClient = true
		}
	}
	if !hasClient {
		return ErrNotClient
	}
	if ca.IsRevoked(cert.SerialNumber) {
		return ErrRevoked
	}
	return nil
}

// CheckAgainstCRL verifies a certificate's revocation status using a
// distributed CRL (for verifiers that only hold the CRL, not the CA).
func CheckAgainstCRL(cert *x509.Certificate, crl *x509.RevocationList, issuer *x509.Certificate) error {
	if err := crl.CheckSignatureFrom(issuer); err != nil {
		return fmt.Errorf("pki: CRL signature: %w", err)
	}
	for _, e := range crl.RevokedCertificateEntries {
		if e.SerialNumber.Cmp(cert.SerialNumber) == 0 {
			return ErrRevoked
		}
	}
	return nil
}

// ClientSubject is the subject of a VNF client certificate: the VNF's
// common name under the vnfguard-vnf organization.
func ClientSubject(commonName string) pkix.Name {
	return pkix.Name{CommonName: commonName, Organization: []string{"vnfguard-vnf"}}
}

// CreateCSR builds a PKCS#10 request for ClientSubject(commonName) using
// signer (which may be an enclave-resident key that only exposes signing).
func CreateCSR(commonName string, signer crypto.Signer) ([]byte, error) {
	tmpl := &x509.CertificateRequest{Subject: ClientSubject(commonName)}
	der, err := x509.CreateCertificateRequest(rand.Reader, tmpl, signer)
	if err != nil {
		return nil, fmt.Errorf("pki: creating CSR: %w", err)
	}
	return der, nil
}

// EncodeCertPEM renders a certificate as PEM.
func EncodeCertPEM(cert *x509.Certificate) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: cert.Raw})
}

// ParseCertPEM parses the first certificate block in a PEM bundle.
func ParseCertPEM(data []byte) (*x509.Certificate, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "CERTIFICATE" {
		return nil, errors.New("pki: no certificate PEM block")
	}
	return x509.ParseCertificate(block.Bytes)
}
