package controller

import (
	"crypto/ecdsa"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vnfguard/internal/pki"
	"vnfguard/internal/translog"
)

// startLoggedServer spins a trusted-HTTPS controller whose client gate
// demands transparency-log inclusion proofs, mirroring how core wires a
// deployment.
func startLoggedServer(t *testing.T) (*Server, *pki.CA, *translog.Log) {
	t.Helper()
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	log, err := translog.NewLog(ca.Signer())
	if err != nil {
		t.Fatal(err)
	}
	serverKey, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.IssueServerCert("controller", []string{"controller"}, []net.IP{net.IPv4(127, 0, 0, 1)}, &serverKey.PublicKey, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	caPub := ca.Certificate().PublicKey.(*ecdsa.PublicKey)
	cfg := ServerConfig{
		Mode:      ModeTrustedHTTPS,
		Cert:      tls.Certificate{Certificate: [][]byte{serverCert.Raw}, PrivateKey: serverKey},
		Trust:     TrustCA,
		ClientCAs: ca.Pool(),
		Revoked: func(cert *x509.Certificate) error {
			if ca.IsRevoked(cert.SerialNumber) {
				return pki.ErrRevoked
			}
			return nil
		},
		CredentialLog: translog.NewCredentialChecker(caPub, translog.NewLogTileProofSource(log, 0)),
	}
	srv, err := Serve(New("ctrl", testNet(t)), cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ca, log
}

func trustedClient(t *testing.T, srv *Server, ca *pki.CA, cert tls.Certificate) *Client {
	t.Helper()
	return NewClient(srv.URL(), &tls.Config{
		MinVersion:   tls.VersionTLS12,
		RootCAs:      ca.Pool(),
		ServerName:   "controller",
		Certificates: []tls.Certificate{cert},
	})
}

// TestTrustedHTTPSRejectsUnloggedCredential is the tentpole's acceptance
// check: a certificate correctly signed by the CA but never committed to
// the transparency log must not be accepted — the enrollment workflow,
// not mere possession of a CA signature, is what grants access.
func TestTrustedHTTPSRejectsUnloggedCredential(t *testing.T) {
	srv, ca, log := startLoggedServer(t)

	loggedTLS, loggedCert := clientCert(t, ca, "fw-logged")
	if _, err := log.Append(translog.Entry{
		Type: translog.EntryEnroll, Timestamp: 1, Actor: "fw-logged",
		Serial: loggedCert.SerialNumber.String(),
	}); err != nil {
		t.Fatal(err)
	}
	rogueTLS, _ := clientCert(t, ca, "fw-rogue")

	if _, err := trustedClient(t, srv, ca, loggedTLS).Summary(); err != nil {
		t.Fatalf("logged credential rejected: %v", err)
	}
	if _, err := trustedClient(t, srv, ca, rogueTLS).Summary(); err == nil {
		t.Fatal("unlogged credential accepted")
	}
}

// TestLoggedRevocationClosesAccess checks the log-backed side of
// revocation: once an EntryRevoke lands, the proof source refuses to
// prove the credential and new sessions fail.
func TestLoggedRevocationClosesAccess(t *testing.T) {
	srv, ca, log := startLoggedServer(t)
	certTLS, cert := clientCert(t, ca, "fw-0")
	serial := cert.SerialNumber.String()
	if _, err := log.Append(translog.Entry{Type: translog.EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: serial}); err != nil {
		t.Fatal(err)
	}
	if _, err := trustedClient(t, srv, ca, certTLS).Summary(); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(translog.Entry{Type: translog.EntryRevoke, Timestamp: 2, Actor: "fw-0", Serial: serial}); err != nil {
		t.Fatal(err)
	}
	if _, err := trustedClient(t, srv, ca, certTLS).Summary(); err == nil {
		t.Fatal("revoked-in-log credential accepted for a new session")
	}
}

// TestRevocationEffectiveMidSession is the regression test for the
// propagation gap: revocation used to be checked only at the TLS
// handshake, so a client holding a keep-alive connection kept pushing
// flows after the VM revoked it. The per-request check must cut the
// session off.
func TestRevocationEffectiveMidSession(t *testing.T) {
	srv, ca, log := startLoggedServer(t)
	certTLS, cert := clientCert(t, ca, "fw-0")
	if _, err := log.Append(translog.Entry{
		Type: translog.EntryEnroll, Timestamp: 1, Actor: "fw-0",
		Serial: cert.SerialNumber.String(),
	}); err != nil {
		t.Fatal(err)
	}

	client := trustedClient(t, srv, ca, certTLS)
	defer client.CloseIdle()
	// First request establishes the TLS session and the keep-alive
	// connection.
	if _, err := client.Summary(); err != nil {
		t.Fatal(err)
	}

	ca.Revoke(cert.SerialNumber)

	// Same client, same pooled connection: no new handshake happens, so
	// only the per-request check can reject this.
	_, err := client.Summary()
	if err == nil {
		t.Fatal("revoked client kept access over its existing session")
	}
	if !strings.Contains(err.Error(), "403") {
		t.Fatalf("want a 403 rejection, got: %v", err)
	}
}

// TestCredentialLogResponseTooLarge: a credential gate reading a remote
// log whose lookup reply runs past the client's 4 MiB cap refuses the
// credential with the named translog.ErrResponseTooLarge, instead of
// judging a truncated bundle.
func TestCredentialLogResponseTooLarge(t *testing.T) {
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	flood := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{" + strings.Repeat(" ", 4<<20) + "}"))
	}))
	defer flood.Close()
	caPub := ca.Certificate().PublicKey.(*ecdsa.PublicKey)
	check := translog.NewCredentialChecker(caPub, translog.NewTileProofSource(translog.NewClient(flood.URL, caPub), 0))
	if err := check(&x509.Certificate{SerialNumber: big.NewInt(77)}); !errors.Is(err, translog.ErrResponseTooLarge) {
		t.Fatalf("got %v, want translog.ErrResponseTooLarge", err)
	}
}

// TestCredentialLogMalformedTile: a credential gate reading a remote log
// whose tile replies are damaged in transit refuses the credential with
// the named translog.ErrMalformedTile, not as a verdict on the log.
func TestCredentialLogMalformedTile(t *testing.T) {
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	log, err := translog.NewLog(ca.Signer())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := log.Append(translog.Entry{Type: translog.EntryEnroll, Timestamp: i, Actor: "fw", Serial: big.NewInt(76 + i).String()}); err != nil {
			t.Fatal(err)
		}
	}
	h := translog.Handler(log)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/tile/") {
			h.ServeHTTP(w, r)
			return
		}
		w.Write([]byte("not a tile"))
	}))
	defer srv.Close()
	caPub := ca.Certificate().PublicKey.(*ecdsa.PublicKey)
	check := translog.NewCredentialChecker(caPub, translog.NewTileProofSource(translog.NewClient(srv.URL, caPub), 0))
	if err := check(&x509.Certificate{SerialNumber: big.NewInt(77)}); !errors.Is(err, translog.ErrMalformedTile) {
		t.Fatalf("got %v, want translog.ErrMalformedTile", err)
	}
}
