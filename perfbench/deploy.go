package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/http"
	"sync"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/epid"
	"vnfguard/internal/host"
	"vnfguard/internal/ias"
	"vnfguard/internal/netsim"
	"vnfguard/internal/pki"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/translog"
	"vnfguard/internal/verifier"
)

// virtualCosts is the hardware cost model of every run: the DefaultCosts
// durations with no sleeper. Charges are counted and summed but never
// waited out, so wall time is pure software cost and modeled time is an
// exact function of the operation counts.
func virtualCosts() *simtime.CostModel {
	m, def := simtime.ZeroCosts(), simtime.DefaultCosts()
	for _, op := range allOps {
		m.Set(op, def.Cost(op))
	}
	return m
}

// allOps lists every modeled operation.
var allOps = []simtime.Op{
	simtime.OpECall, simtime.OpOCall, simtime.OpEReport, simtime.OpQuote,
	simtime.OpSeal, simtime.OpUnseal, simtime.OpIASRoundTrip, simtime.OpTPMExtend,
	simtime.OpTPMQuote, simtime.OpPageIn, simtime.OpIMAMeasure,
	simtime.OpCounterRead, simtime.OpCounterBump,
}

// deployment is the paper's Figure-1 system as core.NewDeployment wires it
// with HTTPTransports, trusted HTTPS, CA trust, the credential-log check,
// full-session enclave TLS, VM-generated provisioning and an in-memory VM
// log — assembled here from the same public constructors so that the
// traced run can put timing decorators on the seams between layers.
type deployment struct {
	model   *simtime.CostModel
	vm      *verifier.Manager
	hosts   []*host.Host
	ctrl    *controller.Controller
	server  *controller.Server
	proofs  *translog.TileProofSource // the controller's credential-proof source
	servers []*http.Server
	golden  sync.RWMutex // see relearn
}

const subscriptionKey = "vnfguard-subscription"

// newDeployment builds and starts a deployment of numHosts container hosts;
// tr may be nil.
func newDeployment(numHosts int, tr *tracer) (*deployment, error) {
	d := &deployment{model: virtualCosts()}
	issuer, err := epid.NewIssuer(1000)
	if err != nil {
		return nil, err
	}
	svc, err := ias.NewService(issuer.GroupPublicKey())
	if err != nil {
		return nil, err
	}
	svc.AddSubscriptionKey(subscriptionKey)
	vendor, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	iasURL, err := d.serve(svc.Handler())
	if err != nil {
		return nil, err
	}
	iasClient, err := ias.NewClient(iasURL, subscriptionKey, svc.SigningCertPEM(), d.model)
	if err != nil {
		return nil, err
	}
	var quotes ias.QuoteVerifier = iasClient
	if tr != nil {
		quotes = &tracedIAS{next: iasClient, tr: tr}
	}
	d.vm, err = verifier.New(verifier.Config{
		Name: "verification-manager", SPID: sgx.SPID{0x42}, IAS: quotes,
		Policy: verifier.DefaultPolicy(),
	})
	if err != nil {
		return nil, err
	}

	network := netsim.NewNetwork()
	if _, err := network.AddSwitch(core.DefaultEnv().Switch); err != nil {
		return nil, err
	}
	for port, name := range map[int]string{1: "ext-client", 2: "svc-server"} {
		if err := network.AttachHost(name, core.DefaultEnv().Switch, port); err != nil {
			return nil, err
		}
	}
	d.ctrl = controller.New("lightpath", network)
	serverKey, err := pki.GenerateKey()
	if err != nil {
		return nil, err
	}
	serverCert, err := d.vm.IssueControllerCert(core.ServerName, []string{core.ServerName}, &serverKey.PublicKey)
	if err != nil {
		return nil, err
	}
	d.proofs = translog.NewLogTileProofSource(d.vm.TransparencyLog(), 0)
	var source translog.ProofSource = d.proofs
	revoked := d.vm.RevocationChecker()
	if tr != nil {
		source = &tracedProofs{next: d.proofs, tr: tr, who: tr.ownerOf}
		revoked = tr.certHook("controller.revocation_check", revoked)
	}
	credLog := translog.NewCredentialChecker(d.caKey(), source)
	if tr != nil {
		credLog = tr.certHook("controller.credential_check", credLog)
	}
	d.server, err = controller.Serve(d.ctrl, controller.ServerConfig{
		Mode:          controller.ModeTrustedHTTPS,
		Cert:          tls.Certificate{Certificate: [][]byte{serverCert.Raw}, PrivateKey: serverKey},
		Trust:         controller.TrustCA,
		ClientCAs:     d.vm.CA().Pool(),
		Revoked:       revoked,
		CredentialLog: credLog,
	}, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	credMR, err := enclaveapp.ExpectedCredentialMeasurement(vendor, d.vm.PublicKey())
	if err != nil {
		return nil, err
	}
	d.vm.PinCredentialMeasurement(credMR)
	for i := 0; i < numHosts; i++ {
		h, err := host.New(host.Config{
			Name: hostName(i), Issuer: issuer, Model: d.model,
			VendorKey: vendor, VMPub: d.vm.PublicKey(), SPID: sgx.SPID{0x42},
		})
		if err != nil {
			return nil, err
		}
		d.hosts = append(d.hosts, h)
		url, err := d.serve(h.Handler())
		if err != nil {
			return nil, err
		}
		var conn verifier.HostConn = host.NewClient(url)
		if tr != nil {
			conn = &tracedHost{next: conn, tr: tr}
		}
		d.vm.RegisterHost(hostName(i), conn, nil)
		d.vm.PinAttestationMeasurement(h.AttestationEnclaveIdentity().MRENCLAVE)
	}
	return d, nil
}

func hostName(i int) string { return fmt.Sprintf("host-%d", i) }

// serve starts an HTTP server for h on a loopback port and returns its URL.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	d.servers = append(d.servers, srv)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// caKey is the public key that verifies the VM's certificates and log heads.
func (d *deployment) caKey() *ecdsa.PublicKey {
	return d.vm.CA().Certificate().PublicKey.(*ecdsa.PublicKey)
}

// close stops every server and enclave of the deployment.
func (d *deployment) close() {
	if d.server != nil {
		d.server.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	if d.vm != nil {
		d.vm.Close()
	}
	for _, h := range d.hosts {
		for _, c := range h.Containers() {
			if c.State == host.StateRunning {
				h.StopContainer(c.ID)
			}
		}
	}
}

// checkCredential verifies that the VM's log proves the issuance of serial
// under the CA key — the onboarding output check.
func (d *deployment) checkCredential(serial string) error {
	pb, err := d.vm.CredentialProof(serial)
	if err != nil {
		return err
	}
	if err := pb.Verify(d.caKey()); err != nil {
		return err
	}
	if pb.Entry.Serial != serial {
		return fmt.Errorf("proof covers serial %s, want %s", pb.Entry.Serial, serial)
	}
	return nil
}

// certName is the VNF a client certificate was issued to.
func certName(c *x509.Certificate) string { return c.Subject.CommonName }
