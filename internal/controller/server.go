package controller

import (
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"vnfguard/internal/obs"
)

// SecurityMode is one of Floodlight's three REST API security modes.
type SecurityMode int

// Security modes (paper §3: "Floodlight supports three different security
// modes for the REST API, non-secure (plain HTTP), HTTPS and trusted HTTPS
// (with client authentication)").
const (
	ModeHTTP SecurityMode = iota
	ModeHTTPS
	ModeTrustedHTTPS
)

// String names the mode for experiment tables.
func (m SecurityMode) String() string {
	switch m {
	case ModeHTTP:
		return "http"
	case ModeHTTPS:
		return "https"
	case ModeTrustedHTTPS:
		return "trusted-https"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// TrustModel selects how trusted-HTTPS validates clients.
type TrustModel int

// Trust models.
const (
	// TrustCA validates client certificates against a trusted CA — the
	// paper's design: "we solve this by provisioning the controller with
	// a trusted certificate authority, rather than all client
	// certificates".
	TrustCA TrustModel = iota
	// TrustKeystore pins individual client certificates (Floodlight's
	// stock behaviour, kept as the E4 ablation: every new credential
	// requires a keystore update).
	TrustKeystore
)

// ServerConfig configures a controller REST endpoint.
type ServerConfig struct {
	Mode SecurityMode
	// Cert is the server certificate (HTTPS modes).
	Cert tls.Certificate
	// Trust selects CA or keystore validation in trusted mode.
	Trust TrustModel
	// ClientCAs is the trusted CA pool (TrustCA).
	ClientCAs *x509.CertPool
	// Keystore holds hex SHA-256 fingerprints of pinned client
	// certificates (TrustKeystore).
	Keystore map[string]bool
	// Revoked, when set, rejects revoked client certificates. It is
	// enforced at the TLS handshake and again on every request, so a
	// revocation takes effect mid-session even on kept-alive connections.
	Revoked func(*x509.Certificate) error
	// CredentialLog, when set, requires every trusted-mode client
	// certificate to carry a verifiable inclusion proof in the
	// Verification Manager's transparency log (translog.NewCredentialChecker):
	// credentials the VM never logged are rejected even when correctly
	// CA-signed.
	CredentialLog func(*x509.Certificate) error
}

// Fingerprint computes the keystore key for a certificate.
func Fingerprint(cert *x509.Certificate) string {
	sum := sha256.Sum256(cert.Raw)
	return hex.EncodeToString(sum[:])
}

// Server is a running controller REST endpoint.
type Server struct {
	cfg  ServerConfig
	ln   net.Listener
	http *http.Server

	mu       sync.Mutex
	keystore map[string]bool
}

// ErrNotPinned reports a client certificate absent from the keystore.
var ErrNotPinned = errors.New("controller: client certificate not in keystore")

// Serve starts the controller's REST endpoint on addr (e.g. 127.0.0.1:0).
func Serve(ctrl *Controller, cfg ServerConfig, addr string) (*Server, error) {
	s := &Server{cfg: cfg, keystore: cfg.Keystore}
	if s.keystore == nil {
		s.keystore = make(map[string]bool)
	}
	handler := ctrl.Handler()
	if cfg.Mode == ModeTrustedHTTPS && cfg.Revoked != nil {
		// Revocation is re-checked per request, not only per handshake:
		// without this, a client holding a keep-alive connection keeps its
		// access for the lifetime of the TLS session after the VM revoked
		// its credential.
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
				if err := cfg.Revoked(r.TLS.PeerCertificates[0]); err != nil {
					http.Error(w, "client certificate revoked", http.StatusForbidden)
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	s.http = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		// Rejected client certificates are the expected outcome of the
		// negative-path experiments; keep them off stderr.
		ErrorLog: log.New(io.Discard, "", 0),
	}

	tcfg, err := s.tlsConfig()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("controller: listen: %w", err)
	}
	s.ln = ln
	if tcfg != nil {
		s.ln = tls.NewListener(ticketListener{ln}, tcfg)
	}

	go s.http.Serve(s.ln)
	return s, nil
}

// tlsConfig builds the listener's TLS configuration for the security
// mode; plain HTTP has none.
//
// The controller issues TLS 1.3 session tickets, so a client that kept
// one resumes its session (RFC 8446 §2.2) without presenting its
// certificate again. Go's server runs no certificate verification
// callback on a resumed session, but calls VerifyConnection on every
// handshake, with the peer certificates and verified chains restored
// from the ticket. So every trusted-HTTPS check runs in
// VerifyConnection: a resumed session is refused for a revoked or
// unlogged credential exactly as a full handshake is. Only the chain
// itself is not re-verified on resumption; it is bound to the ticket,
// which the server encrypted.
func (s *Server) tlsConfig() (*tls.Config, error) {
	switch s.cfg.Mode {
	case ModeHTTP:
		return nil, nil
	case ModeHTTPS:
		return &tls.Config{
			MinVersion:   tls.VersionTLS12,
			Certificates: []tls.Certificate{s.cfg.Cert},
		}, nil
	case ModeTrustedHTTPS:
		tcfg := &tls.Config{
			MinVersion:   tls.VersionTLS12,
			Certificates: []tls.Certificate{s.cfg.Cert},
		}
		switch s.cfg.Trust {
		case TrustCA:
			if s.cfg.ClientCAs == nil {
				return nil, errors.New("controller: trusted mode requires ClientCAs")
			}
			tcfg.ClientAuth = tls.RequireAndVerifyClientCert
			tcfg.ClientCAs = s.cfg.ClientCAs
			tcfg.VerifyConnection = VerifyClientChain(s.cfg.Revoked, s.cfg.CredentialLog)
		case TrustKeystore:
			tcfg.ClientAuth = tls.RequireAnyClientCert
			tcfg.VerifyConnection = verifyClient(s.pinnedLeaf, s.cfg.Revoked, s.cfg.CredentialLog)
		}
		// After a full TLS 1.3 handshake that authenticated the client,
		// Go's server writes the session ticket on its own; the
		// connection's ticketConn holds it for the first reply.
		tcfg.GetConfigForClient = func(hello *tls.ClientHelloInfo) (*tls.Config, error) {
			tc, ok := hello.Conn.(*ticketConn)
			if !ok {
				return nil, nil
			}
			cfg := tcfg.Clone()
			cfg.GetConfigForClient = nil
			cfg.WrapSession = func(cs tls.ConnectionState, ss *tls.SessionState) ([]byte, error) {
				// A resumed handshake carries its ticket in the server's
				// first flight.
				if cs.Version == tls.VersionTLS13 && !cs.DidResume {
					tc.holdNextWrite()
				}
				return tcfg.EncryptTicket(cs, ss)
			}
			return cfg, nil
		}
		return tcfg, nil
	default:
		return nil, fmt.Errorf("controller: unknown security mode %d", s.cfg.Mode)
	}
}

// ticketListener wraps every accepted connection in a ticketConn.
type ticketListener struct{ net.Listener }

func (l ticketListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ticketConn{Conn: c}, nil
}

// ticketConn holds back the session ticket that Go's TLS 1.3 server
// writes on its own after a full client-authenticated handshake, and
// sends it in one write with the connection's next write: the first
// reply, or the alert of a failed handshake or of Close. The client then
// reads ticket and reply with one socket read: a credential enclave pays
// an OCall per read, and a ticket read apart from the reply, as
// scheduling would sometimes have it, costs one more. No TLS peer waits
// for a ticket, so holding one never stalls a connection.
type ticketConn struct {
	net.Conn
	mu   sync.Mutex
	hold bool
	held []byte
}

// holdNextWrite makes the next write, the ticket's, wait for the one
// after it.
func (c *ticketConn) holdNextWrite() {
	c.mu.Lock()
	c.hold = true
	c.mu.Unlock()
}

func (c *ticketConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.hold {
		c.hold = false
		c.held = append(c.held, p...)
		c.mu.Unlock()
		return len(p), nil
	}
	held := c.held
	c.held = nil
	c.mu.Unlock()
	if len(held) == 0 {
		return c.Conn.Write(p)
	}
	n, err := c.Conn.Write(append(held, p...))
	return max(n-len(held), 0), err
}

// Handshake telemetry: trusted-HTTPS client handshakes that reached the
// controller's VerifyConnection hook, accepted or refused, labelled by
// whether the TLS session resumed.
var (
	handshakeHelp     = "Trusted-HTTPS client handshakes verified by the controller, labelled by whether the TLS session resumed."
	mHandshakeFull    = obs.Default().Counter("controller_tls_handshakes_total", handshakeHelp, "resumed", "false")
	mHandshakeResumed = obs.Default().Counter("controller_tls_handshakes_total", handshakeHelp, "resumed", "true")
)

// VerifyClientChain builds the TrustCA VerifyConnection hook: the leaf
// of the chain the TLS stack verified against the trusted CA pool must
// pass every per-leaf check — revocation (CRL distributed by the
// Verification Manager) and transparency-log inclusion (the leaf must
// carry provable issuance evidence in the VM's audit log). Nil checks
// are skipped.
func VerifyClientChain(checks ...func(*x509.Certificate) error) func(tls.ConnectionState) error {
	return verifyClient(func(cs tls.ConnectionState) (*x509.Certificate, error) {
		if len(cs.VerifiedChains) == 0 || len(cs.VerifiedChains[0]) == 0 {
			return nil, x509.CertificateInvalidError{Reason: x509.NotAuthorizedToSign}
		}
		return cs.VerifiedChains[0][0], nil
	}, checks...)
}

// verifyClient is the one VerifyConnection hook of both trust models:
// leafOf picks the client certificate the trust model accepts, then
// every non-nil check runs on it.
func verifyClient(leafOf func(tls.ConnectionState) (*x509.Certificate, error), checks ...func(*x509.Certificate) error) func(tls.ConnectionState) error {
	return func(cs tls.ConnectionState) error {
		if cs.DidResume {
			mHandshakeResumed.Inc()
		} else {
			mHandshakeFull.Inc()
		}
		leaf, err := leafOf(cs)
		if err != nil {
			return err
		}
		for _, check := range checks {
			if check == nil {
				continue
			}
			if err := check(leaf); err != nil {
				return err
			}
		}
		return nil
	}
}

// pinnedLeaf is the TrustKeystore leaf: the client certificate, which
// must be pinned in the keystore.
func (s *Server) pinnedLeaf(cs tls.ConnectionState) (*x509.Certificate, error) {
	if len(cs.PeerCertificates) == 0 {
		return nil, ErrNotPinned
	}
	leaf := cs.PeerCertificates[0]
	s.mu.Lock()
	ok := s.keystore[Fingerprint(leaf)]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotPinned
	}
	return leaf, nil
}

// PinCertificate adds a client certificate to the keystore (the manual
// maintenance step the paper's CA design eliminates).
func (s *Server) PinCertificate(cert *x509.Certificate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keystore[Fingerprint(cert)] = true
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the endpoint base URL.
func (s *Server) URL() string {
	if s.cfg.Mode == ModeHTTP {
		return "http://" + s.Addr()
	}
	return "https://" + s.Addr()
}

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.http.Close() }
