package enclaveapp

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/netsim"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/secchan"
)

// handshakeSeen is one handshake a controller verified: the serial of the
// client certificate it judged and whether the TLS session resumed.
type handshakeSeen struct {
	serial  string
	resumed bool
}

// testController is a trusted-HTTPS controller that records the client
// certificate of every handshake it verifies.
type testController struct {
	url string

	mu      sync.Mutex
	serials []string
}

// startController serves a trusted-HTTPS controller trusting ca, named
// "controller", until the test ends.
func startController(t *testing.T, ca *pki.CA) *testController {
	t.Helper()
	key, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueServerCert("controller", []string{"controller"}, []net.IP{net.IPv4(127, 0, 0, 1)}, &key.PublicKey, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testController{}
	srv, err := controller.Serve(controller.New("ctrl", netsim.NewNetwork()), controller.ServerConfig{
		Mode:      controller.ModeTrustedHTTPS,
		Cert:      tls.Certificate{Certificate: [][]byte{cert.Raw}, PrivateKey: key},
		Trust:     controller.TrustCA,
		ClientCAs: ca.Pool(),
		// The credential-log hook runs on every verified handshake, full
		// or resumed: it sees the certificate the controller judged.
		CredentialLog: func(c *x509.Certificate) error {
			tc.mu.Lock()
			tc.serials = append(tc.serials, c.SerialNumber.String())
			tc.mu.Unlock()
			return nil
		},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tc.url = srv.URL()
	return tc
}

// handshakeCount reads controller_tls_handshakes_total{resumed=…}.
func handshakeCount(resumed string) uint64 {
	return obs.Default().Counter("controller_tls_handshakes_total", "", "resumed", resumed).Value()
}

// client is a controller client whose every connection is a new
// in-enclave session of ce.
func (tc *testController) client(ce *CredentialEnclave) *controller.Client {
	return controller.NewClientWithDialer(tc.url, func(ctx context.Context, network, addr string) (net.Conn, error) {
		raw, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		conn, err := ce.DialTLS(raw, "controller")
		if err != nil {
			raw.Close()
			return nil, err
		}
		return conn, nil
	})
}

// connect opens one fresh in-enclave session from ce to the controller,
// sends one request over it and closes it. It returns what the
// controller saw of that session's handshake.
func (tc *testController) connect(t *testing.T, ce *CredentialEnclave) handshakeSeen {
	t.Helper()
	full, resumed := handshakeCount("false"), handshakeCount("true")
	tc.mu.Lock()
	tc.serials = nil
	tc.mu.Unlock()
	client := tc.client(ce)
	// Reading the reply also takes in the session ticket the controller
	// sent after the handshake.
	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
	client.CloseIdle()
	tc.mu.Lock()
	serials := tc.serials
	tc.mu.Unlock()
	dFull, dResumed := handshakeCount("false")-full, handshakeCount("true")-resumed
	if len(serials) != 1 || dFull+dResumed != 1 {
		t.Fatalf("one request: %d certificate checks, %d full + %d resumed handshakes; want one handshake", len(serials), dFull, dResumed)
	}
	return handshakeSeen{serial: serials[0], resumed: dResumed == 1}
}

// provisionedForController enrolls a new credential enclave on fx's
// platform and provisions it with a certificate for cn from ca.
func provisionedForController(t *testing.T, fx *fixture, ca *pki.CA, cn string) (*CredentialEnclave, *vmSide, string) {
	t.Helper()
	ce := newCredEnclave(t, fx)
	vm := runEnrollment(t, fx, ce)
	cert := provision(t, vm, ce, ca, cn, ModeVMGenerated)
	return ce, vm, cert.SerialNumber.String()
}

func newTestCA(t *testing.T) *pki.CA {
	t.Helper()
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// TestReconnectResumes: a VNF's second connection to the controller
// resumes the session its first one established, from the ticket its
// credential enclave kept.
func TestReconnectResumes(t *testing.T) {
	fx, ca := newFixture(t), newTestCA(t)
	tc := startController(t, ca)
	ce, _, serial := provisionedForController(t, fx, ca, "vnf-a")

	if got := tc.connect(t, ce); got != (handshakeSeen{serial, false}) {
		t.Fatalf("first connection: %+v, want a full handshake as %s", got, serial)
	}
	for i := 0; i < 2; i++ {
		if got := tc.connect(t, ce); got != (handshakeSeen{serial, true}) {
			t.Fatalf("reconnect %d: %+v, want a resumed session as %s", i, got, serial)
		}
	}
}

// TestReprovisionForcesFullHandshake: once the enclave is provisioned
// with a new certificate, its next connection is a full handshake under
// the new certificate. A ticket of the old credential would resume the
// session as the old serial.
func TestReprovisionForcesFullHandshake(t *testing.T) {
	fx, ca := newFixture(t), newTestCA(t)
	tc := startController(t, ca)
	ce, vm, oldSerial := provisionedForController(t, fx, ca, "vnf-a")
	tc.connect(t, ce)
	if got := tc.connect(t, ce); !got.resumed {
		t.Fatalf("reconnect before re-provisioning did not resume: %+v", got)
	}

	newSerial := provision(t, vm, ce, ca, "vnf-a", ModeVMGenerated).SerialNumber.String()
	if got := tc.connect(t, ce); got != (handshakeSeen{newSerial, false}) {
		t.Fatalf("after re-provisioning: %+v, want a full handshake as %s (old serial %s)", got, newSerial, oldSerial)
	}
}

// TestRevokeRecordRefusesDial: after the VM's revoke record, the enclave
// holds no TLS config and no ticket, so it cannot even resume.
func TestRevokeRecordRefusesDial(t *testing.T) {
	fx, ca := newFixture(t), newTestCA(t)
	tc := startController(t, ca)
	ce, vm, _ := provisionedForController(t, fx, ca, "vnf-a")
	tc.connect(t, ce)

	frame, err := vm.codec.Seal(secchan.TypeRevoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.HandleFrame(frame); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", strings.TrimPrefix(tc.url, "https://"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := ce.DialTLS(raw, "controller"); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("dial after revoke: %v, want ErrNotProvisioned", err)
	}
}

// TestEnclavesResumeAsThemselves: two VNFs' enclaves on one host dial one
// controller, each keeping its own tickets. A cache shared between
// enclaves would let one VNF resume the other's session.
func TestEnclavesResumeAsThemselves(t *testing.T) {
	fx, ca := newFixture(t), newTestCA(t)
	tc := startController(t, ca)
	a, _, serialA := provisionedForController(t, fx, ca, "vnf-a")
	b, _, serialB := provisionedForController(t, fx, ca, "vnf-b")

	tc.connect(t, a)
	tc.connect(t, b)
	for _, c := range []struct {
		ce     *CredentialEnclave
		serial string
	}{{a, serialA}, {b, serialB}, {a, serialA}} {
		if got := tc.connect(t, c.ce); got != (handshakeSeen{c.serial, true}) {
			t.Fatalf("reconnect: %+v, want a resumed session as %s", got, c.serial)
		}
	}
}

// TestDialsRaceReprovisioning: requests on sessions dialled while the
// VM re-provisions the enclave either complete or find no credential;
// none fails otherwise, and the enclave ends up resuming as its last
// certificate.
func TestDialsRaceReprovisioning(t *testing.T) {
	fx, ca := newFixture(t), newTestCA(t)
	tc := startController(t, ca)
	ce, vm, _ := provisionedForController(t, fx, ca, "vnf-a")
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := tc.client(ce)
			for range 5 {
				if _, err := client.Health(); err != nil && !errors.Is(err, ErrNotProvisioned) {
					t.Error(err)
				}
				client.CloseIdle()
			}
		}()
	}
	var serial string
	for range 3 {
		serial = provision(t, vm, ce, ca, "vnf-a", ModeVMGenerated).SerialNumber.String()
	}
	wg.Wait()
	tc.connect(t, ce)
	if got := tc.connect(t, ce); got != (handshakeSeen{serial, true}) {
		t.Fatalf("after the race: %+v, want a resumed session as %s", got, serial)
	}
}
