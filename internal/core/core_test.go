package core

import (
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/netsim"
	"vnfguard/internal/obs"
	"vnfguard/internal/verifier"
	"vnfguard/internal/vnf"
)

// newTrustedDeployment builds a deployment with one firewall VNF deployed
// and the golden baseline learned.
func newTrustedDeployment(t *testing.T, opts Options) *Deployment {
	t.Helper()
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.DeployVNF(0, "fw-1", "firewall"); err != nil {
		t.Fatal(err)
	}
	if err := d.LearnGolden(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkflowStepTelemetry: one onboarding observes each of the
// Manager's verifier_step_seconds series exactly once, and the step
// times RunWorkflow reports are those series' Sum() deltas.
func TestWorkflowStepTelemetry(t *testing.T) {
	d := newTrustedDeployment(t, Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	steps := map[int]*obs.Histogram{
		1: verifier.StepHostEvidence,
		2: verifier.StepHostAppraisal,
		3: verifier.StepVNFRA,
		5: verifier.StepProvision,
	}
	counts, sums := map[int]uint64{}, map[int]time.Duration{}
	for n, h := range steps {
		counts[n], sums[n] = h.Count(), h.Sum()
	}
	res, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		h, ok := steps[s.Number]
		if !ok {
			continue
		}
		if got := h.Count() - counts[s.Number]; got != 1 {
			t.Errorf("step %d observed %d times, want 1", s.Number, got)
		}
		if delta := h.Sum() - sums[s.Number]; s.Duration != delta || delta <= 0 {
			t.Errorf("step %d reported %v, series moved by %v", s.Number, s.Duration, delta)
		}
	}
}

func TestWorkflowEndToEndTrustedHTTPS(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode:    controller.ModeTrustedHTTPS,
		Trust:   controller.TrustCA,
		TLSMode: enclaveapp.TLSFullSession,
	})
	res, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 6 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	if len(res.Enrolled) != 1 || res.Enrolled[0] != "fw-1" {
		t.Fatalf("enrolled = %v", res.Enrolled)
	}
	// The firewall's flows are installed and attributed to the VNF's
	// authenticated identity.
	flows := d.Ctrl.FlowsOn("00:00:01")
	if len(flows) != 3 {
		t.Fatalf("flows = %+v", flows)
	}
	for _, f := range flows {
		if f.PushedBy != "fw-1" {
			t.Fatalf("flow %s pushed by %q", f.Name, f.PushedBy)
		}
	}
	// Forwarding behaviour matches the firewall policy: HTTPS to the
	// service subnet passes, SSH drops.
	https := netsim.Packet{
		IPSrc: netip.MustParseAddr("192.168.1.5"), IPDst: netip.MustParseAddr("10.0.0.10"),
		Proto: netsim.ProtoTCP, DstPort: 443, Payload: []byte("hello"),
	}
	del, err := d.Network.Inject("00:00:01", 1, https)
	if err != nil {
		t.Fatal(err)
	}
	if !del.Delivered || del.Host != "svc-server" {
		t.Fatalf("https delivery = %+v", del)
	}
	ssh := https
	ssh.DstPort = 22
	del, err = d.Network.Inject("00:00:01", 1, ssh)
	if err != nil {
		t.Fatal(err)
	}
	if !del.Dropped {
		t.Fatalf("ssh delivery = %+v", del)
	}
}

func TestWorkflowAllModeCombinations(t *testing.T) {
	modes := []controller.SecurityMode{controller.ModeHTTP, controller.ModeHTTPS, controller.ModeTrustedHTTPS}
	tlsModes := []enclaveapp.TLSMode{enclaveapp.TLSKeyInEnclave, enclaveapp.TLSFullSession}
	provModes := []enclaveapp.ProvisionMode{enclaveapp.ModeVMGenerated, enclaveapp.ModeCSR}
	for _, mode := range modes {
		for _, tm := range tlsModes {
			for _, pm := range provModes {
				name := mode.String() + "/" + tm.String() + "/" + string(pm)
				t.Run(name, func(t *testing.T) {
					d := newTrustedDeployment(t, Options{
						Mode: mode, Trust: controller.TrustCA,
						TLSMode: tm, Provision: pm,
					})
					res, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")})
					if err != nil {
						t.Fatal(err)
					}
					if res.Total <= 0 {
						t.Fatal("no total time")
					}
				})
			}
		}
	}
}

func TestWorkflowOverHTTPTransports(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		TLSMode:        enclaveapp.TLSKeyInEnclave,
		HTTPTransports: true,
	})
	res, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Enrolled) != 1 {
		t.Fatalf("enrolled = %v", res.Enrolled)
	}
	if d.IAS.Reports() < 2 {
		t.Fatalf("IAS reports = %d (host + enclave expected)", d.IAS.Reports())
	}
}

func TestWorkflowBlockedOnCompromisedHost(t *testing.T) {
	d := newTrustedDeployment(t, Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	d.Hosts[0].TamperBinary("fw-1", "/usr/bin/firewall", []byte("rootkit"))
	_, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")})
	if err == nil || !strings.Contains(err.Error(), "not trusted") {
		t.Fatalf("compromised host workflow: %v", err)
	}
	// No credentials were issued.
	if n := len(d.VM.Enrollments()); n != 0 {
		t.Fatalf("enrollments on untrusted host: %d", n)
	}
}

func TestUnenrolledVNFCannotProgramNetwork(t *testing.T) {
	d := newTrustedDeployment(t, Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	// The VNF container runs but never enrolls: its enclave holds no
	// credentials, so no TLS client can be built.
	ce, err := d.Hosts[0].CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vnf.NewInstance(StandardFirewall("fw-1"), ce, d.ControllerURL(), ServerName, DefaultEnv(), enclaveapp.TLSKeyInEnclave); !errors.Is(err, enclaveapp.ErrNotProvisioned) {
		t.Fatalf("unprovisioned instance: %v", err)
	}
	// A client with no certificate is rejected at the TLS layer.
	noCert := controller.NewClient(d.ControllerURL(), nil)
	if err := noCert.PushFlow(controller.FlowSpec{Name: "x", Switch: "00:00:01", Actions: "drop"}); err == nil {
		t.Fatal("credential-less flow push accepted in trusted mode")
	}
}

func TestRevocationCutsControllerAccess(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		TLSMode: enclaveapp.TLSKeyInEnclave,
	})
	if _, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")}); err != nil {
		t.Fatal(err)
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ce.ClientTLSConfig(ServerName)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VM.RevokeVNF("fw-1"); err != nil {
		t.Fatal(err)
	}
	// New sessions with the (now revoked) certificate are rejected. The
	// config was captured pre-revocation — the certificate itself is the
	// revoked artifact.
	client := controller.NewClient(d.ControllerURL(), cfg)
	if _, err := client.Health(); err == nil {
		t.Fatal("revoked certificate accepted by controller")
	}
	// And the enclave no longer holds credentials for a retry.
	if _, _, err := ce.Certificate(); !errors.Is(err, enclaveapp.ErrNotProvisioned) {
		t.Fatalf("enclave credentials after revocation: %v", err)
	}
}

func TestReplayedEnrollmentOnSecondVNF(t *testing.T) {
	d := newTrustedDeployment(t, Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	if err := d.DeployVNF(0, "ids-1", "monitor"); err != nil {
		t.Fatal(err)
	}
	if err := d.LearnGolden(); err != nil {
		t.Fatal(err)
	}
	fw := StandardFirewall("fw-1")
	ids := &vnf.Monitor{InstanceName: "ids-1", WatchPorts: []uint16{23}}
	res, err := d.RunWorkflow(0, []vnf.VNF{fw, ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Enrolled) != 2 {
		t.Fatalf("enrolled = %v", res.Enrolled)
	}
	// Monitor flows coexist with firewall flows at higher priority.
	telnet := netsim.Packet{
		IPSrc: netip.MustParseAddr("192.168.1.5"), IPDst: netip.MustParseAddr("10.0.0.10"),
		Proto: netsim.ProtoTCP, DstPort: 23, Payload: []byte("root"),
	}
	before := d.Ctrl.PacketIns()
	if _, err := d.Network.Inject("00:00:01", 1, telnet); err != nil {
		t.Fatal(err)
	}
	if d.Ctrl.PacketIns() != before+1 {
		t.Fatal("monitor did not punt telnet to controller")
	}
}

func TestMultiHostDeployment(t *testing.T) {
	d, err := NewDeployment(Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA, NumHosts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		if err := d.DeployVNF(i, "fw-"+string(rune('a'+i)), "firewall"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.LearnGolden(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		app, err := d.VM.AttestHost(d.HostName(i))
		if err != nil {
			t.Fatal(err)
		}
		if !app.Trusted {
			t.Fatalf("host %d untrusted: %v", i, app.Findings)
		}
		if _, err := d.VM.EnrollVNF(d.HostName(i), "fw-"+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.VM.Enrollments()) != 3 {
		t.Fatalf("enrollments = %d", len(d.VM.Enrollments()))
	}
}

func TestKeystoreTrustAblation(t *testing.T) {
	// In keystore mode the CA-signed certificate is NOT enough: the
	// controller must be updated per certificate — the operational
	// problem §3 of the paper fixes with the CA design.
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustKeystore,
		TLSMode: enclaveapp.TLSKeyInEnclave,
	})
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		t.Fatal(err)
	}
	enr, err := d.VM.EnrollVNF(d.HostName(0), "fw-1")
	if err != nil {
		t.Fatal(err)
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ce.ClientTLSConfig(ServerName)
	if err != nil {
		t.Fatal(err)
	}
	client := controller.NewClient(d.ControllerURL(), cfg)
	if _, err := client.Health(); err == nil {
		t.Fatal("unpinned certificate accepted in keystore mode")
	}
	// After the manual keystore update it works.
	d.Server.PinCertificate(enr.Cert)
	client2 := controller.NewClient(d.ControllerURL(), cfg)
	if _, err := client2.Health(); err != nil {
		t.Fatalf("pinned certificate rejected: %v", err)
	}
}

func TestEnrollBeforeAttestFails(t *testing.T) {
	d := newTrustedDeployment(t, Options{})
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-1"); !errors.Is(err, verifier.ErrHostNotTrusted) {
		t.Fatalf("got %v", err)
	}
}

func TestStandardImageDeterministic(t *testing.T) {
	a, b := StandardImage("firewall"), StandardImage("firewall")
	if a.Digest() != b.Digest() {
		t.Fatal("standard image not deterministic")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkflowResultRendering(t *testing.T) {
	d := newTrustedDeployment(t, Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	res, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")})
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"step 1", "step 6", "total", "quote status: OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}
