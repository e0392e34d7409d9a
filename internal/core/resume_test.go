package core

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"sync"
	"testing"

	"vnfguard/internal/controller"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/netsim"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/vnf"
)

// recordingController is a trusted-HTTPS controller over a deployment's
// CA, revocation list and credential log that records every revocation
// verdict it reaches: a refused client reads only a TLS alert, so this
// is where the controller's refusal sentinel shows.
type recordingController struct {
	srv *controller.Server

	mu       sync.Mutex
	verdicts []error
}

func startRecordingController(t *testing.T, d *Deployment) *recordingController {
	t.Helper()
	key, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := d.VM.IssueControllerCert(ServerName, []string{ServerName}, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordingController{}
	revoked := d.VM.RevocationChecker()
	rc.srv, err = controller.Serve(controller.New("ctrl", netsim.NewNetwork()), controller.ServerConfig{
		Mode:      controller.ModeTrustedHTTPS,
		Cert:      tls.Certificate{Certificate: [][]byte{cert.Raw}, PrivateKey: key},
		Trust:     controller.TrustCA,
		ClientCAs: d.VM.CA().Pool(),
		Revoked: func(c *x509.Certificate) error {
			err := revoked(c)
			rc.mu.Lock()
			rc.verdicts = append(rc.verdicts, err)
			rc.mu.Unlock()
			return err
		},
		CredentialLog: d.VM.CredentialChecker(),
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.srv.Close() })
	return rc
}

// lastVerdict is the controller's latest revocation verdict.
func (rc *recordingController) lastVerdict() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.verdicts) == 0 {
		return errors.New("no revocation check ran")
	}
	return rc.verdicts[len(rc.verdicts)-1]
}

// connect sends one request on a fresh connection of inst and closes it.
// It returns how many full and resumed handshakes the controller
// verified, from controller_tls_handshakes_total, and the request's
// error.
func connect(inst *vnf.Instance) (full, resumed uint64, err error) {
	fullC := obs.Default().Counter("controller_tls_handshakes_total", "", "resumed", "false")
	resumedC := obs.Default().Counter("controller_tls_handshakes_total", "", "resumed", "true")
	full0, resumed0 := fullC.Value(), resumedC.Value()
	// Reading the reply also takes in the session ticket the controller
	// sent after the handshake.
	_, err = inst.Client().Health()
	inst.Client().CloseIdle()
	return fullC.Value() - full0, resumedC.Value() - resumed0, err
}

// keyInEnclaveInstance onboards fw-1 in key-in-enclave mode and connects
// a vnf.Instance of it to a recording controller.
func keyInEnclaveInstance(t *testing.T) (*Deployment, *recordingController, *vnf.Instance) {
	t.Helper()
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		TLSMode: enclaveapp.TLSKeyInEnclave,
	})
	if _, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")}); err != nil {
		t.Fatal(err)
	}
	rc := startRecordingController(t, d)
	ce, err := d.Hosts[0].CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := vnf.NewInstance(StandardFirewall("fw-1"), ce, rc.srv.URL(), ServerName, DefaultEnv(), enclaveapp.TLSKeyInEnclave)
	if err != nil {
		t.Fatal(err)
	}
	if full, resumed, err := connect(inst); err != nil || full != 1 || resumed != 0 {
		t.Fatalf("first connection: %v, %d full + %d resumed handshakes; want one full handshake", err, full, resumed)
	}
	return d, rc, inst
}

// TestKeyInEnclaveReconnectResumes: a key-in-enclave VNF's reconnects
// resume the session its first connection established, so they cost no
// signature ECall.
func TestKeyInEnclaveReconnectResumes(t *testing.T) {
	_, _, inst := keyInEnclaveInstance(t)
	for i := 0; i < 2; i++ {
		if full, resumed, err := connect(inst); err != nil || full != 0 || resumed != 1 {
			t.Fatalf("reconnect %d: %v, %d full + %d resumed handshakes; want one resumed handshake", i, err, full, resumed)
		}
	}
}

// TestKeyInEnclaveResumeRefusedAfterRevoke: the session ticket outlives
// the revoked credential on the VNF's side, but the controller refuses
// the resumed handshake with pki.ErrRevoked, as it refuses a full one.
func TestKeyInEnclaveResumeRefusedAfterRevoke(t *testing.T) {
	d, rc, inst := keyInEnclaveInstance(t)
	if err := d.VM.RevokeVNF("fw-1"); err != nil {
		t.Fatal(err)
	}
	full, resumed, err := connect(inst)
	if err == nil {
		t.Fatal("resumed session of a revoked credential accepted")
	}
	if full != 0 || resumed != 1 {
		t.Fatalf("after revoke: %d full + %d resumed handshakes; want one resumed handshake", full, resumed)
	}
	if v := rc.lastVerdict(); !errors.Is(v, pki.ErrRevoked) {
		t.Fatalf("controller verdict %v, want pki.ErrRevoked", v)
	}
}
