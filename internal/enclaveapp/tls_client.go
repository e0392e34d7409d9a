package enclaveapp

import (
	"crypto"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/wire"
)

// TLSMode selects how much of the TLS stack runs inside the enclave.
type TLSMode int

// TLS placement modes (experiment E5).
const (
	// TLSKeyInEnclave keeps only the private key inside: handshake
	// signatures are ECALLs, the record layer runs untrusted. This is
	// the "alternative implementation" whose performance the paper
	// leaves for future work.
	TLSKeyInEnclave TLSMode = iota
	// TLSFullSession runs the whole TLS session inside the enclave, as
	// the paper's implementation does ("the security context established
	// for each TLS session (including the session key) does not leave
	// the enclave"). Record I/O crosses the boundary as OCALLs.
	TLSFullSession
)

// String names the mode for experiment tables.
func (m TLSMode) String() string {
	switch m {
	case TLSKeyInEnclave:
		return "key-in-enclave"
	case TLSFullSession:
		return "full-session-in-enclave"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

func hmacSum(key, data []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(data)
	return m.Sum(nil)
}

// ---- key-in-enclave mode ----------------------------------------------------

// Signer returns a crypto.Signer whose private operations execute inside
// the enclave (one ECALL per signature).
func (ce *CredentialEnclave) Signer() (crypto.Signer, error) {
	der, err := ce.enclave.ECall("pubkey", nil)
	if err != nil {
		return nil, err
	}
	pub, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("enclaveapp: enclave public key: %w", err)
	}
	return &enclaveSigner{ce: ce, pub: pub}, nil
}

type enclaveSigner struct {
	ce  *CredentialEnclave
	pub crypto.PublicKey
}

func (s *enclaveSigner) Public() crypto.PublicKey { return s.pub }

func (s *enclaveSigner) Sign(_ io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	if opts != nil && opts.HashFunc() != crypto.SHA256 {
		return nil, fmt.Errorf("enclaveapp: unsupported hash %v", opts.HashFunc())
	}
	return s.ce.enclave.ECall("sign", digest)
}

// ClientTLSConfig builds a mutual-TLS client config in key-in-enclave
// mode: the certificate chain is public, the private key stays behind the
// ECALL boundary. The config keeps its own session cache, so a reconnect
// resumes without a signature ECall; the controller still re-checks
// revocation and the credential log on a resumed handshake.
func (ce *CredentialEnclave) ClientTLSConfig(serverName string) (*tls.Config, error) {
	certDER, caDER, err := ce.Certificate()
	if err != nil {
		return nil, err
	}
	leaf, err := x509.ParseCertificate(certDER)
	if err != nil {
		return nil, err
	}
	signer, err := ce.Signer()
	if err != nil {
		return nil, err
	}
	roots := x509.NewCertPool()
	if len(caDER) > 0 {
		ca, err := x509.ParseCertificate(caDER)
		if err != nil {
			return nil, err
		}
		roots.AddCert(ca)
	}
	return &tls.Config{
		MinVersion:         tls.VersionTLS12,
		RootCAs:            roots,
		ServerName:         serverName,
		Certificates:       []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: signer, Leaf: leaf}},
		ClientSessionCache: tls.NewLRUClientSessionCache(tlsSessionCacheSize),
	}, nil
}

// ---- full-session mode --------------------------------------------------------

// tlsSession is an in-enclave TLS connection.
type tlsSession struct {
	raw  net.Conn
	conn *tls.Conn
}

// ocallConn models record I/O crossing the enclave boundary: every Read
// and Write is an OCALL out plus an ECALL back in.
type ocallConn struct {
	net.Conn
	model *simtime.CostModel
}

func (c *ocallConn) Read(p []byte) (int, error) {
	c.model.Charge(simtime.OpOCall)
	n, err := c.Conn.Read(p)
	c.model.Charge(simtime.OpECall)
	return n, err
}

func (c *ocallConn) Write(p []byte) (int, error) {
	c.model.Charge(simtime.OpOCall)
	n, err := c.Conn.Write(p)
	c.model.Charge(simtime.OpECall)
	return n, err
}

// Refusals of the full-session TLS ECalls. The host chooses every
// argument and session id, so each refusal is named.
var (
	ErrECallEncoding  = errors.New("enclaveapp: malformed TLS ECall arguments or result")
	ErrUnknownSession = errors.New("enclaveapp: unknown TLS session")
	ErrNotHandshaken  = errors.New("enclaveapp: TLS session not handshaken")
	ErrHandshaken     = errors.New("enclaveapp: TLS session already handshaken")
)

// maxServerName caps tls_handshake's server name (a DNS name is at most
// 253 bytes).
const maxServerName = 255

// malformed wraps a wire refusal of an ECall's arguments or result.
func malformed(what string, err error) error {
	return fmt.Errorf("%w: %s: %w", ErrECallEncoding, what, err)
}

func (ce *CredentialEnclave) getSession(id uint32) (*tlsSession, error) {
	ce.tlsMu.Lock()
	defer ce.tlsMu.Unlock()
	s, ok := ce.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	return s, nil
}

// handshakenSession returns the session id names once its handshake is
// done: only then may records move through it.
func (ce *CredentialEnclave) handshakenSession(id uint32) (*tlsSession, error) {
	sess, err := ce.getSession(id)
	if err == nil && sess.conn == nil {
		err = fmt.Errorf("%w: %d", ErrNotHandshaken, id)
	}
	return sess, err
}

// handleTLSHandshake runs the handshake of a session DialTLS opened, on
// a clone of the config built at provisioning: it parses nothing, and a
// ticket the enclave's session cache holds for the server name resumes
// the session. Arguments: u32 id ‖ u32-length-prefixed server name.
func (ce *CredentialEnclave) handleTLSHandshake(ctx *sgx.Context, args []byte) ([]byte, error) {
	r := wire.NewReader(args)
	id := r.U32()
	serverName := string(r.Bytes32(maxServerName))
	if err := r.Done(); err != nil {
		return nil, malformed("tls_handshake", err)
	}
	sess, err := ce.getSession(id)
	if err != nil {
		return nil, err
	}
	if sess.conn != nil {
		return nil, fmt.Errorf("%w: %d", ErrHandshaken, id)
	}
	ce.tlsMu.Lock()
	base := ce.tlsCfg
	ce.tlsMu.Unlock()
	if base == nil {
		return nil, ErrNotProvisioned
	}
	cfg := base.Clone()
	cfg.ServerName = serverName
	conn := tls.Client(&ocallConn{Conn: sess.raw, model: ce.platform.Model()}, cfg)
	if err := conn.Handshake(); err != nil {
		return nil, fmt.Errorf("enclaveapp: in-enclave handshake: %w", err)
	}
	sess.conn = conn
	return []byte("ok"), nil
}

// tls_read result status bytes.
const (
	tlsReadOK  = 0
	tlsReadEOF = 1
)

// handleTLSRead reads up to max bytes (capped at 1 MiB) of application
// data. Arguments: u32 id ‖ u32 max. Result: status byte ‖ data.
func (ce *CredentialEnclave) handleTLSRead(ctx *sgx.Context, args []byte) ([]byte, error) {
	r := wire.NewReader(args)
	id, maxLen := r.U32(), min(r.U32(), 1<<20)
	if err := r.Done(); err != nil {
		return nil, malformed("tls_read", err)
	}
	sess, err := ce.handshakenSession(id)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, maxLen+1)
	n, err := sess.conn.Read(buf[1:])
	switch {
	case err == nil || (errors.Is(err, io.EOF) && n > 0):
		buf[0] = tlsReadOK
	case errors.Is(err, io.EOF):
		buf[0] = tlsReadEOF
	default:
		return nil, err
	}
	return buf[:1+n], nil
}

// handleTLSWrite sends application data. Arguments: u32 id ‖ data.
// Result: u32 bytes written.
func (ce *CredentialEnclave) handleTLSWrite(ctx *sgx.Context, args []byte) ([]byte, error) {
	r := wire.NewReader(args)
	id := r.U32()
	data := r.Rest()
	if err := r.Done(); err != nil {
		return nil, malformed("tls_write", err)
	}
	sess, err := ce.handshakenSession(id)
	if err != nil {
		return nil, err
	}
	n, err := sess.conn.Write(data)
	return wire.AppendU32(nil, uint32(n)), err
}

// handleTLSClose ends a session. Arguments: u32 id.
func (ce *CredentialEnclave) handleTLSClose(ctx *sgx.Context, args []byte) ([]byte, error) {
	r := wire.NewReader(args)
	id := r.U32()
	if err := r.Done(); err != nil {
		return nil, malformed("tls_close", err)
	}
	ce.tlsMu.Lock()
	sess, ok := ce.sessions[id]
	delete(ce.sessions, id)
	ce.tlsMu.Unlock()
	if !ok {
		return nil, nil
	}
	if sess.conn != nil {
		return nil, sess.conn.Close()
	}
	return nil, sess.raw.Close()
}

// DialTLS establishes a full-session-in-enclave TLS connection over the
// given raw transport. The returned connection moves application data
// through ECALLs; TLS state never exists outside the enclave.
func (ce *CredentialEnclave) DialTLS(raw net.Conn, serverName string) (*FullSessionConn, error) {
	ce.tlsMu.Lock()
	ce.nextSess++
	id := ce.nextSess
	ce.sessions[id] = &tlsSession{raw: raw}
	ce.tlsMu.Unlock()

	args := wire.AppendBytes32(wire.AppendU32(nil, id), serverName)
	if _, err := ce.enclave.ECall("tls_handshake", args); err != nil {
		ce.tlsMu.Lock()
		delete(ce.sessions, id)
		ce.tlsMu.Unlock()
		return nil, err
	}
	return &FullSessionConn{ce: ce, id: id, raw: raw}, nil
}

// FullSessionConn is the untrusted handle to an in-enclave TLS session; it
// satisfies net.Conn so standard clients can use it.
type FullSessionConn struct {
	ce  *CredentialEnclave
	id  uint32
	raw net.Conn
}

// Read moves decrypted application data out of the enclave.
func (c *FullSessionConn) Read(p []byte) (int, error) {
	out, err := c.ce.enclave.ECall("tls_read", wire.AppendU32(wire.AppendU32(make([]byte, 0, 8), c.id), uint32(len(p))))
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(out)
	status := r.U8()
	n := copy(p, r.Rest())
	if err := r.Done(); err != nil {
		return 0, malformed("tls_read result", err)
	}
	if status == tlsReadEOF {
		return n, io.EOF
	}
	return n, nil
}

// Write moves plaintext into the enclave for encryption and transmission.
func (c *FullSessionConn) Write(p []byte) (int, error) {
	out, err := c.ce.enclave.ECall("tls_write", append(wire.AppendU32(make([]byte, 0, 4+len(p)), c.id), p...))
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(out)
	n := r.U32()
	if err := r.Done(); err != nil {
		return 0, malformed("tls_write result", err)
	}
	return int(n), nil
}

// Close shuts the in-enclave session down.
func (c *FullSessionConn) Close() error {
	_, err := c.ce.enclave.ECall("tls_close", wire.AppendU32(nil, c.id))
	return err
}

// LocalAddr returns the transport's local address.
func (c *FullSessionConn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr returns the transport's remote address.
func (c *FullSessionConn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline sets transport deadlines.
func (c *FullSessionConn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline sets the transport read deadline.
func (c *FullSessionConn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline sets the transport write deadline.
func (c *FullSessionConn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }
