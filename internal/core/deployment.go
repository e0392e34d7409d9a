// Package core wires the full system of the paper's Figure 1 — the EPID
// trust fabric, the attestation service, container hosts with SGX/IMA,
// the Verification Manager, the SDN controller with its forwarding plane,
// and VNFs — and runs the six-step credential workflow end to end. It is
// the facade the examples and the experiment harness build on.
package core

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"fmt"
	"net"
	"net/http"
	"time"

	"vnfguard/internal/controller"
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

// ServerName is the controller's certificate DNS name.
const ServerName = "controller"

// Options configures a deployment. The zero value is a single in-process
// host with trusted-HTTPS (CA model), full-session enclave TLS and the
// paper's VM-generated provisioning.
type Options struct {
	// Model is the hardware cost model (nil = zero-cost).
	Model *simtime.CostModel
	// Mode is the controller REST security mode.
	Mode controller.SecurityMode
	// Trust selects CA (paper) or keystore (ablation) client validation.
	Trust controller.TrustModel
	// TLSMode places the VNF's TLS stack (paper default: full session in
	// enclave).
	TLSMode enclaveapp.TLSMode
	// Provision selects VM-generated keys (paper) or CSR mode.
	Provision enclaveapp.ProvisionMode
	// EnableTPM equips hosts with TPMs; RequireTPM makes the appraisal
	// policy demand them (§4 extension).
	EnableTPM  bool
	RequireTPM bool
	// NumHosts is the container-host count (default 1).
	NumHosts int
	// HTTPTransports runs IAS and host agents over real HTTP sockets
	// instead of in-process calls.
	HTTPTransports bool
	// LogDir persists the VM's transparency log in that directory (a
	// translog.OpenDurableLog store handed to the VM as
	// verifier.Config.Log): audit history then survives restarts. A
	// reopen must present the same CA key — the deployment generates a
	// fresh CA, so resuming the directory means reopening the log with
	// translog.OpenDurableLog under the original deployment's CA signer.
	LogDir string
}

// Deployment is a fully wired system.
type Deployment struct {
	Opts    Options
	Model   *simtime.CostModel
	Issuer  *epid.Issuer
	IAS     *ias.Service
	VM      *verifier.Manager
	Hosts   []*host.Host
	Network *netsim.Network
	Ctrl    *controller.Controller
	Server  *controller.Server

	vendor   *ecdsa.PrivateKey
	registry *host.Registry

	// http servers when HTTPTransports is set.
	iasHTTP    *http.Server
	agentHTTPs []*http.Server
}

// NewDeployment assembles and starts everything.
func NewDeployment(opts Options) (*Deployment, error) {
	if opts.NumHosts <= 0 {
		opts.NumHosts = 1
	}
	d := &Deployment{Opts: opts, Model: opts.Model, registry: host.NewRegistry()}

	var err error
	d.Issuer, err = epid.NewIssuer(1000)
	if err != nil {
		return nil, err
	}
	d.IAS, err = ias.NewService(d.Issuer.GroupPublicKey())
	if err != nil {
		return nil, err
	}
	const subKey = "vnfguard-subscription"
	d.IAS.AddSubscriptionKey(subKey)

	d.vendor, err = ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}

	// IAS client: in-process or over HTTP.
	var iasClient ias.QuoteVerifier
	if opts.HTTPTransports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.iasHTTP = &http.Server{Handler: d.IAS.Handler()}
		go d.iasHTTP.Serve(ln)
		iasClient, err = ias.NewClient("http://"+ln.Addr().String(), subKey, d.IAS.SigningCertPEM(), opts.Model)
		if err != nil {
			return nil, err
		}
	} else {
		iasClient = &ias.DirectClient{Service: d.IAS, Model: opts.Model}
	}

	policy := verifier.DefaultPolicy()
	policy.RequireTPM = opts.RequireTPM
	vmCfg := verifier.Config{
		Name:          "verification-manager",
		SPID:          sgx.SPID{0x42},
		IAS:           iasClient,
		Policy:        policy,
		ProvisionMode: opts.Provision,
	}
	if opts.LogDir != "" {
		// The durable log's heads are signed by the CA key, so the CA
		// comes first.
		if vmCfg.CA, err = pki.NewCA(vmCfg.Name+" CA", 10*365*24*time.Hour); err != nil {
			return nil, err
		}
		if vmCfg.Log, err = translog.OpenDurableLog(vmCfg.CA.Signer(), opts.LogDir, translog.StoreConfig{}); err != nil {
			return nil, err
		}
	}
	if d.VM, err = verifier.New(vmCfg); err != nil {
		return nil, err
	}

	// Forwarding plane: one switch; port 1 = external client, port 2 =
	// protected server; further ports for scaling hosts.
	d.Network = netsim.NewNetwork()
	if _, err := d.Network.AddSwitch("00:00:01"); err != nil {
		return nil, err
	}
	if err := d.Network.AttachHost("ext-client", "00:00:01", 1); err != nil {
		return nil, err
	}
	if err := d.Network.AttachHost("svc-server", "00:00:01", 2); err != nil {
		return nil, err
	}
	d.Ctrl = controller.New("lightpath", d.Network)

	// Controller endpoint with a VM-CA-issued server certificate.
	serverKey, err := pki.GenerateKey()
	if err != nil {
		return nil, err
	}
	serverCert, err := d.VM.IssueControllerCert(ServerName, []string{ServerName}, &serverKey.PublicKey)
	if err != nil {
		return nil, err
	}
	cfg := controller.ServerConfig{
		Mode:    opts.Mode,
		Cert:    tls.Certificate{Certificate: [][]byte{serverCert.Raw}, PrivateKey: serverKey},
		Trust:   opts.Trust,
		Revoked: d.VM.RevocationChecker(),
	}
	if opts.Mode == controller.ModeTrustedHTTPS {
		// The paper's trusted mode hardened with the transparency log: a
		// client certificate is only accepted with a verifiable inclusion
		// proof that the VM logged its issuance.
		cfg.CredentialLog = d.VM.CredentialChecker()
	}
	if opts.Mode == controller.ModeTrustedHTTPS && opts.Trust == controller.TrustCA {
		cfg.ClientCAs = d.VM.CA().Pool()
	}
	d.Server, err = controller.Serve(d.Ctrl, cfg, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// Container hosts.
	credMR, err := enclaveapp.ExpectedCredentialMeasurement(d.vendor, d.VM.PublicKey())
	if err != nil {
		return nil, err
	}
	d.VM.PinCredentialMeasurement(credMR)
	for i := 0; i < opts.NumHosts; i++ {
		name := fmt.Sprintf("host-%d", i)
		h, err := host.New(host.Config{
			Name: name, Issuer: d.Issuer, Model: opts.Model,
			VendorKey: d.vendor, VMPub: d.VM.PublicKey(), SPID: sgx.SPID{0x42},
			EnableTPM: opts.EnableTPM,
		})
		if err != nil {
			return nil, err
		}
		d.Hosts = append(d.Hosts, h)
		var aik *ecdsa.PublicKey
		if h.HasTPM() {
			aik = h.TPM().AIKPublic()
		}
		var conn verifier.HostConn = h
		if opts.HTTPTransports {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srv := &http.Server{Handler: h.Handler()}
			d.agentHTTPs = append(d.agentHTTPs, srv)
			go srv.Serve(ln)
			conn = host.NewClient("http://" + ln.Addr().String())
		}
		d.VM.RegisterHost(name, conn, aik)
		d.VM.PinAttestationMeasurement(h.AttestationEnclaveIdentity().MRENCLAVE)
	}
	return d, nil
}

// AgentServers returns the host-agent HTTP servers when HTTPTransports is
// set (failure-injection tests close them to simulate host loss).
func (d *Deployment) AgentServers() []*http.Server { return d.agentHTTPs }

// ControllerURL returns the controller's base URL.
func (d *Deployment) ControllerURL() string { return d.Server.URL() }

// Vendor returns the ISV signing key (used by the harness to compute
// expected measurements).
func (d *Deployment) Vendor() *ecdsa.PrivateKey { return d.vendor }

// Registry returns the image registry.
func (d *Deployment) Registry() *host.Registry { return d.registry }

// StandardImage builds the canonical VNF image used by examples and
// experiments.
func StandardImage(kind string) *host.Image {
	return &host.Image{
		Name: "vnf-" + kind, Tag: "1.0",
		Entrypoint: "/usr/bin/" + kind,
		Configs:    []string{"/etc/" + kind + ".conf"},
		Layers: []host.Layer{
			{Files: map[string][]byte{"/usr/bin/" + kind: []byte(kind + " binary v1.0")}},
			{Files: map[string][]byte{"/etc/" + kind + ".conf": []byte(kind + " config")}},
		},
	}
}

// DeployVNF pulls/creates the image for kind and runs it as vnfName on
// host index hostIdx.
func (d *Deployment) DeployVNF(hostIdx int, vnfName, kind string) error {
	if hostIdx < 0 || hostIdx >= len(d.Hosts) {
		return fmt.Errorf("core: host index %d out of range", hostIdx)
	}
	im := StandardImage(kind)
	if err := d.registry.Push(im); err != nil {
		return err
	}
	_, err := d.Hosts[hostIdx].RunContainer(im, vnfName)
	return err
}

// LearnGolden records every host's current IML as the golden baseline.
func (d *Deployment) LearnGolden() error {
	for i := range d.Hosts {
		if err := d.VM.LearnHostGolden(fmt.Sprintf("host-%d", i)); err != nil {
			return err
		}
	}
	return nil
}

// HostName returns the registered name of host i.
func (d *Deployment) HostName(i int) string { return fmt.Sprintf("host-%d", i) }

// Close tears the deployment down.
func (d *Deployment) Close() {
	if d.Server != nil {
		d.Server.Close()
	}
	if d.VM != nil {
		d.VM.Close()
	}
	if d.iasHTTP != nil {
		d.iasHTTP.Close()
	}
	for _, s := range d.agentHTTPs {
		s.Close()
	}
	for _, h := range d.Hosts {
		for _, c := range h.Containers() {
			if c.State == host.StateRunning {
				h.StopContainer(c.ID)
			}
		}
	}
	// Give handlers a beat to drain before the process moves on.
	time.Sleep(time.Millisecond)
}
