package pki

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/x509"
	"errors"
	"net"
	"slices"
	"testing"
	"time"
)

func newCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("vnfguard test CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func issueClient(t *testing.T, ca *CA, cn string) *x509.Certificate {
	t.Helper()
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	csr, err := CreateCSR(cn, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.SignClientCSR(csr, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func TestCASelfSigned(t *testing.T) {
	ca := newCA(t)
	cert := ca.Certificate()
	if !cert.IsCA {
		t.Fatal("CA cert lacks IsCA")
	}
	if err := cert.CheckSignatureFrom(cert); err != nil {
		t.Fatalf("self-signature invalid: %v", err)
	}
}

func TestIssueAndVerifyClient(t *testing.T) {
	ca := newCA(t)
	cert := issueClient(t, ca, "vnf-1")
	if err := ca.VerifyClient(cert); err != nil {
		t.Fatalf("valid client rejected: %v", err)
	}
	if cert.Subject.CommonName != "vnf-1" {
		t.Fatalf("CN = %q", cert.Subject.CommonName)
	}
}

func TestVerifyRejectsForeignCA(t *testing.T) {
	ca1, ca2 := newCA(t), newCA(t)
	cert := issueClient(t, ca2, "impostor")
	if err := ca1.VerifyClient(cert); !errors.Is(err, ErrChainInvalid) {
		t.Fatalf("got %v, want ErrChainInvalid", err)
	}
}

func TestVerifyRejectsServerCertAsClient(t *testing.T) {
	ca := newCA(t)
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueServerCert("ctrl", []string{"controller"}, []net.IP{net.IPv4(127, 0, 0, 1)}, &key.PublicKey, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.VerifyClient(cert); err == nil {
		t.Fatal("server cert accepted for client auth")
	}
}

func TestRevocation(t *testing.T) {
	ca := newCA(t)
	cert := issueClient(t, ca, "vnf-1")
	if ca.IsRevoked(cert.SerialNumber) {
		t.Fatal("fresh cert already revoked")
	}
	ca.Revoke(cert.SerialNumber)
	if err := ca.VerifyClient(cert); !errors.Is(err, ErrRevoked) {
		t.Fatalf("got %v, want ErrRevoked", err)
	}
}

func TestCRL(t *testing.T) {
	ca := newCA(t)
	c1 := issueClient(t, ca, "vnf-1")
	c2 := issueClient(t, ca, "vnf-2")
	ca.Revoke(c1.SerialNumber)

	crl, der, err := ca.CRL(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(der) == 0 {
		t.Fatal("empty CRL DER")
	}
	if err := CheckAgainstCRL(c1, crl, ca.Certificate()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked cert passed CRL check: %v", err)
	}
	if err := CheckAgainstCRL(c2, crl, ca.Certificate()); err != nil {
		t.Fatalf("valid cert failed CRL check: %v", err)
	}
}

func TestCRLRejectsWrongIssuer(t *testing.T) {
	ca1, ca2 := newCA(t), newCA(t)
	cert := issueClient(t, ca1, "vnf-1")
	crl, _, err := ca1.CRL(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAgainstCRL(cert, crl, ca2.Certificate()); err == nil {
		t.Fatal("CRL accepted under wrong issuer")
	}
}

func TestCRLNumberMonotonic(t *testing.T) {
	ca := newCA(t)
	crl1, _, err := ca.CRL(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	crl2, _, err := ca.CRL(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if crl2.Number.Cmp(crl1.Number) <= 0 {
		t.Fatal("CRL number not monotonic")
	}
}

func TestSignClientCSRRejectsGarbage(t *testing.T) {
	ca := newCA(t)
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	csr, err := CreateCSR("vnf-1", key)
	if err != nil {
		t.Fatal(err)
	}
	// The DER ends in the signature's last byte: flipping its low bit
	// keeps the request well-formed but breaks proof of possession.
	flipped := append([]byte(nil), csr...)
	flipped[len(flipped)-1] ^= 0x01
	if _, err := x509.ParseCertificateRequest(flipped); err != nil {
		t.Fatalf("flipped CSR no longer parses: %v", err)
	}
	for name, der := range map[string][]byte{
		"garbage":         []byte("not a csr"),
		"flipped-sig-bit": flipped,
	} {
		if _, err := ca.SignClientCSR(der, time.Hour); !errors.Is(err, ErrBadCSR) {
			t.Fatalf("%s: got %v, want ErrBadCSR", name, err)
		}
	}
	if got := ca.Issued(); got != 0 {
		t.Fatalf("refused requests issued %d certificates", got)
	}
}

// TestIssueClientCertMatchesCSRPath pins that skipping the CSR changes
// nothing a relying party sees: for the same key, the direct and CSR
// paths issue the same subject, usages and validity window.
func TestIssueClientCertMatchesCSRPath(t *testing.T) {
	ca := newCA(t)
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	csr, err := CreateCSR("vnf-1", key)
	if err != nil {
		t.Fatal(err)
	}
	viaCSR, err := ca.SignClientCSR(csr, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ca.IssueClientCert(ClientSubject("vnf-1"), &key.PublicKey, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.RawSubject, viaCSR.RawSubject) {
		t.Fatalf("subject %q, CSR path %q", direct.Subject, viaCSR.Subject)
	}
	if direct.KeyUsage != viaCSR.KeyUsage {
		t.Fatalf("key usage %v, CSR path %v", direct.KeyUsage, viaCSR.KeyUsage)
	}
	if !slices.Equal(direct.ExtKeyUsage, viaCSR.ExtKeyUsage) {
		t.Fatalf("ext key usage %v, CSR path %v", direct.ExtKeyUsage, viaCSR.ExtKeyUsage)
	}
	if d, c := direct.NotAfter.Sub(direct.NotBefore), viaCSR.NotAfter.Sub(viaCSR.NotBefore); d != c {
		t.Fatalf("validity window %v, CSR path %v", d, c)
	}
	if !direct.PublicKey.(*ecdsa.PublicKey).Equal(&key.PublicKey) {
		t.Fatal("direct certificate does not carry the caller's key")
	}
	if err := ca.VerifyClient(direct); err != nil {
		t.Fatalf("direct certificate rejected: %v", err)
	}
}

func TestSerialsUniqueAndCounted(t *testing.T) {
	ca := newCA(t)
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		cert := issueClient(t, ca, "vnf")
		s := cert.SerialNumber.String()
		if seen[s] {
			t.Fatalf("duplicate serial %s", s)
		}
		seen[s] = true
	}
	if ca.Issued() != 10 {
		t.Fatalf("issued = %d, want 10", ca.Issued())
	}
}

func TestCertPEMRoundTrip(t *testing.T) {
	ca := newCA(t)
	pemBytes := ca.CertPEM()
	cert, err := ParseCertPEM(pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Equal(ca.Certificate()) {
		t.Fatal("PEM round trip mismatch")
	}
	if _, err := ParseCertPEM([]byte("garbage")); err == nil {
		t.Fatal("garbage PEM accepted")
	}
}

func TestIssueServerCertProperties(t *testing.T) {
	ca := newCA(t)
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueServerCert("controller", []string{"sdn.local"}, []net.IP{net.IPv4(10, 0, 0, 1)}, &key.PublicKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.DNSNames) != 1 || cert.DNSNames[0] != "sdn.local" {
		t.Fatalf("dns names %v", cert.DNSNames)
	}
	wantEKU := false
	for _, e := range cert.ExtKeyUsage {
		if e == x509.ExtKeyUsageServerAuth {
			wantEKU = true
		}
	}
	if !wantEKU {
		t.Fatal("missing server-auth EKU")
	}
	// Default validity applied.
	if cert.NotAfter.Sub(cert.NotBefore) < 23*time.Hour {
		t.Fatalf("validity too short: %v", cert.NotAfter.Sub(cert.NotBefore))
	}
}
