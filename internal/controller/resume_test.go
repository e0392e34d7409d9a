package controller

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnfguard/internal/pki"
	"vnfguard/internal/translog"
)

// verdictEnv is a trusted-HTTPS controller's TLS configuration, built by
// the same code Serve uses, with switches that change a credential's
// standing between two sessions.
type verdictEnv struct {
	srv      *Server
	tcfg     *tls.Config
	ln       net.Listener
	ca       *pki.CA
	cert     tls.Certificate
	leaf     *x509.Certificate
	revoked  atomic.Bool
	logErr   atomic.Pointer[error]
	clockAdd atomic.Int64
}

func newVerdictEnv(t *testing.T, trust TrustModel) *verdictEnv {
	t.Helper()
	ca, err := pki.NewCA("vm-ca", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	serverKey, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.IssueServerCert("controller", []string{"controller"}, []net.IP{net.IPv4(127, 0, 0, 1)}, &serverKey.PublicKey, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	v := &verdictEnv{ca: ca}
	v.cert, v.leaf = clientCert(t, ca, "fw-0") // valid for an hour
	v.srv = &Server{cfg: ServerConfig{
		Mode:      ModeTrustedHTTPS,
		Cert:      tls.Certificate{Certificate: [][]byte{serverCert.Raw}, PrivateKey: serverKey},
		Trust:     trust,
		ClientCAs: ca.Pool(),
		Revoked: func(*x509.Certificate) error {
			if v.revoked.Load() {
				return pki.ErrRevoked
			}
			return nil
		},
		CredentialLog: func(*x509.Certificate) error {
			if p := v.logErr.Load(); p != nil {
				return *p
			}
			return nil
		},
	}, keystore: map[string]bool{Fingerprint(v.leaf): true}}
	if v.tcfg, err = v.srv.tlsConfig(); err != nil {
		t.Fatal(err)
	}
	// The server's clock, for a certificate that expires between
	// sessions.
	v.tcfg.Time = func() time.Time { return time.Now().Add(time.Duration(v.clockAdd.Load())) }
	if v.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.ln.Close() })
	return v
}

// clientConfig is the client's TLS config; cache, when set, keeps its
// session tickets.
func (v *verdictEnv) clientConfig(cache tls.ClientSessionCache) *tls.Config {
	return &tls.Config{
		MinVersion:         tls.VersionTLS12,
		RootCAs:            v.ca.Pool(),
		ServerName:         "controller",
		Certificates:       []tls.Certificate{v.cert},
		ClientSessionCache: cache,
	}
}

// session runs one connection from a client using cfg. It returns the
// controller's verdict on the handshake (nil: accepted) and how many full
// and resumed handshakes reached its VerifyConnection hook, read from
// controller_tls_handshakes_total.
func (v *verdictEnv) session(t *testing.T, cfg *tls.Config) (verdict error, full, resumed uint64) {
	t.Helper()
	full0, resumed0 := mHandshakeFull.Value(), mHandshakeResumed.Value()
	raw, err := net.Dial("tcp", v.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := v.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv := tls.Server(&ticketConn{Conn: accepted}, v.tcfg)
		if verdict = srv.Handshake(); verdict == nil {
			srv.Write([]byte{1})
		}
		srv.Close()
	}()
	client := tls.Client(raw, cfg)
	// Reading the server's byte also takes in its session ticket; a
	// refused client reads the alert instead.
	if client.Handshake() == nil {
		client.Read(make([]byte, 1))
	}
	client.Close()
	wg.Wait()
	return verdict, mHandshakeFull.Value() - full0, mHandshakeResumed.Value() - resumed0
}

func isErr(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

func setLogErr(err error) func(*verdictEnv) {
	return func(v *verdictEnv) { v.logErr.Store(&err) }
}

// TestResumedHandshakeVerdicts runs every row's second session both as a
// full handshake and as a resumption of the first session's ticket; the
// two must reach the same verdict with the same sentinel. Go's server
// runs no certificate verification callback on a resumed session, so a
// check made there rather than in VerifyConnection would accept the
// resumed revoked and unlogged rows.
func TestResumedHandshakeVerdicts(t *testing.T) {
	rows := []struct {
		name  string
		trust TrustModel
		// between changes the credential's standing after the first
		// session.
		between func(*verdictEnv)
		// refused matches the expected refusal; nil expects acceptance.
		refused func(error) bool
		// noHook: the refusal comes before VerifyConnection, and the
		// server declines to resume.
		noHook bool
	}{
		{name: "valid", trust: TrustCA, between: func(*verdictEnv) {}},
		{name: "revoked", trust: TrustCA, between: func(v *verdictEnv) { v.revoked.Store(true) }, refused: isErr(pki.ErrRevoked)},
		{name: "unlogged", trust: TrustCA, between: setLogErr(translog.ErrNotLogged), refused: isErr(translog.ErrNotLogged)},
		{name: "log-revoked", trust: TrustCA, between: setLogErr(translog.ErrLogRevoked), refused: isErr(translog.ErrLogRevoked)},
		{name: "expired", trust: TrustCA, between: func(v *verdictEnv) { v.clockAdd.Store(int64(2 * time.Hour)) },
			refused: func(err error) bool {
				var invalid x509.CertificateInvalidError
				return errors.As(err, &invalid) && invalid.Reason == x509.Expired
			}, noHook: true},
		{name: "keystore-pinned", trust: TrustKeystore, between: func(*verdictEnv) {}},
		{name: "keystore-unpinned", trust: TrustKeystore, between: func(v *verdictEnv) {
			v.srv.mu.Lock()
			delete(v.srv.keystore, Fingerprint(v.leaf))
			v.srv.mu.Unlock()
		}, refused: isErr(ErrNotPinned)},
		{name: "keystore-revoked", trust: TrustKeystore, between: func(v *verdictEnv) { v.revoked.Store(true) }, refused: isErr(pki.ErrRevoked)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			v := newVerdictEnv(t, row.trust)
			cache := tls.NewLRUClientSessionCache(1)
			if err, _, _ := v.session(t, v.clientConfig(cache)); err != nil {
				t.Fatalf("first session refused: %v", err)
			}
			row.between(v)
			for _, resume := range []bool{false, true} {
				cfg := v.clientConfig(nil)
				wantFull, wantResumed := uint64(1), uint64(0)
				if resume {
					cfg = v.clientConfig(cache)
					wantFull, wantResumed = 0, 1
				}
				if row.noHook {
					wantFull, wantResumed = 0, 0
				}
				err, full, resumed := v.session(t, cfg)
				if full != wantFull || resumed != wantResumed {
					t.Errorf("resume=%v: %d full + %d resumed handshakes verified, want %d + %d", resume, full, resumed, wantFull, wantResumed)
				}
				switch {
				case row.refused == nil && err != nil:
					t.Errorf("resume=%v: refused: %v", resume, err)
				case row.refused != nil && err == nil:
					t.Errorf("resume=%v: accepted", resume)
				case row.refused != nil && !row.refused(err):
					t.Errorf("resume=%v: wrong refusal: %v", resume, err)
				}
			}
		})
	}
}

// readCounter counts the reads that returned data.
type readCounter struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestTicketRidesWithFirstReply: after a full handshake, the client gets
// its session ticket and the first reply with one socket read, even when
// the reply comes well after the handshake. Sent on its own, the ticket
// would cost a read of its own: an OCall for a credential enclave.
func TestTicketRidesWithFirstReply(t *testing.T) {
	ca, err := pki.NewCA("vm-ca", time.Hour)
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
	srv, err := Serve(New("ctrl", testNet(t)), ServerConfig{
		Mode:      ModeTrustedHTTPS,
		Cert:      tls.Certificate{Certificate: [][]byte{serverCert.Raw}, PrivateKey: serverKey},
		Trust:     TrustCA,
		ClientCAs: ca.Pool(),
		// Runs at the handshake and again before every reply: the
		// reply comes 20 ms after the ticket is ready.
		Revoked: func(*x509.Certificate) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cert, _ := clientCert(t, ca, "fw-0")
	cache := tls.NewLRUClientSessionCache(1)
	var counter *readCounter
	var afterHandshake int64
	client := NewClientWithDialer(srv.URL(), func(ctx context.Context, network, addr string) (net.Conn, error) {
		raw, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		counter = &readCounter{Conn: raw}
		conn := tls.Client(counter, &tls.Config{
			MinVersion: tls.VersionTLS12, RootCAs: ca.Pool(), ServerName: "controller",
			Certificates: []tls.Certificate{cert}, ClientSessionCache: cache,
		})
		if err := conn.HandshakeContext(ctx); err != nil {
			raw.Close()
			return nil, err
		}
		afterHandshake = counter.reads.Load()
		return conn, nil
	})
	defer client.CloseIdle()
	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get("controller"); !ok {
		t.Fatal("no session ticket stored")
	}
	if n := counter.reads.Load() - afterHandshake; n != 1 {
		t.Fatalf("ticket and first reply took %d reads, want 1", n)
	}
}
